package sof

import (
	"context"
	"testing"
)

// FuzzLifecycleSchedule decodes a byte stream into an arrival / departure /
// clock-advance / fail / restore / repair / dynamic-operation schedule and
// replays it on a capacitated recovery session. Whatever schedule the
// fuzzer invents, the session must not panic, no tracker may go negative,
// Accumulated() must be monotone, and load conservation must hold at every
// step, every lease charging its forest's footprint.
func FuzzLifecycleSchedule(f *testing.F) {
	// Seed corpus: an idle run, a dense arrival burst, arrivals with
	// departures and expiries, a fail/repair-heavy mix, and two runs of
	// every dynamic operation around a failure and its repair, one joining
	// before the insert and one after.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3})
	f.Add([]byte{0, 4, 1, 0, 2, 9, 0, 0, 1, 1, 2, 200})
	f.Add([]byte{0, 2, 3, 5, 5, 0, 3, 5, 4, 0, 5, 0, 0, 1, 3, 9, 5, 0})
	f.Add([]byte{0, 0, 6, 4, 20, 1, 3, 2, 5, 0, 41, 0, 27, 0, 34, 0, 13, 0})
	f.Add([]byte{0, 0, 20, 1, 6, 4, 3, 2, 5, 0, 41, 0, 27, 0, 34, 0, 13, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		net, s, _, _, d1, d2, _ := buildSurvivable(t)
		solver := NewSolver(net, WithCapacity(4, 2), WithRecovery())
		ctx := context.Background()
		g := net.Graph()

		var clock int64
		lastAcc := 0.0
		step := func(op, arg byte) {
			switch op % 7 {
			case 0: // arrival: TTL from the argument (0 = until Leave)
				dests := []NodeID{d1}
				if arg%2 == 1 {
					dests = []NodeID{d1, d2}
				}
				_, _ = solver.Embed(ctx, Request{
					Sources:      []NodeID{s},
					Destinations: dests,
					ChainLength:  1,
					TTL:          int64(arg % 8),
				})
			case 1: // departure of the arg-th live lease
				if leases := solver.Leases(); len(leases) > 0 {
					_ = solver.Leave(leases[int(arg)%len(leases)].ID)
				}
			case 2: // clock advance
				clock += int64(arg%4) + 1
				if _, err := solver.AdvanceTime(clock); err != nil {
					t.Fatalf("AdvanceTime: %v", err)
				}
			case 3: // fail an element
				if arg%2 == 0 {
					solver.FailLink(EdgeID(int(arg/2) % g.NumEdges()))
				} else {
					solver.FailVM(NodeID(int(arg/2) % g.NumNodes()))
				}
			case 4: // restore everything
				solver.RestoreAllFailures()
			case 5: // repair sweep (errors allowed: losses are surfaced)
				_, _ = solver.RepairAll(ctx)
			default: // dynamic operation op/7 on the arg-th live forest
				dynamicOp(solver, int(op/7), int(arg))
			}
		}

		for i := 0; i+1 < len(data) && i < 128; i += 2 {
			step(data[i], data[i+1])
			if err := conservationError(solver); err != nil {
				t.Fatalf("op %d (byte %d): %v", i/2, data[i], err)
			}
			if acc := solver.Accumulated(); acc < lastAcc {
				t.Fatalf("op %d: Accumulated went backwards (%v -> %v)", i/2, lastAcc, acc)
			} else {
				lastAcc = acc
			}
		}
	})
}
