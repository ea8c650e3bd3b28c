package rpc

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"

	"sof/internal/dist"
)

// A connection opens with an 8-byte magic preamble, which the server reads
// once and closes any connection that lacks it. After the preamble the
// connection is a framed gob exchange, reused across embeddings: the
// leader writes one dist.CandidateRequest per exchange, the domain answers
// with a stream of dist.CandidateFragments ending in a Done trailer, and
// the next request may follow on the same connection.
//
// Cancellation needs no control message: a leader that gives up severs the
// connection, the domain's next fragment write fails, and
// dist.Domain.AnswerStream aborts the oracle fan-out mid-batch, so a
// cancelled leader never leaves the domain solving into the void.
const streamMagic = "SOFSTRM1"

// streamConn is one leader-side stream connection with its persistent
// codec state (gob type descriptors cross once per connection, not per
// exchange).
type streamConn struct {
	conn net.Conn
	bw   *bufio.Writer
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// acquireStream pops a pooled stream connection for the domain or dials a
// fresh one (writing the protocol preamble). The connection is tracked as
// active so Close severs in-flight streams.
func (t *Transport) acquireStream(ctx context.Context, domainID int) (*streamConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpc: transport is closed")
	}
	if pool := t.streams[domainID]; len(pool) > 0 {
		sc := pool[len(pool)-1]
		t.streams[domainID] = pool[:len(pool)-1]
		t.streamActive[sc] = struct{}{}
		t.mu.Unlock()
		return sc, nil
	}
	t.mu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.addrs[domainID])
	if err != nil {
		return nil, fmt.Errorf("rpc: dial domain %d stream at %s: %w", domainID, t.addrs[domainID], err)
	}
	if _, err := io.WriteString(conn, streamMagic); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: domain %d stream preamble: %w", domainID, err)
	}
	bw := bufio.NewWriter(conn)
	sc := &streamConn{conn: conn, bw: bw, enc: gob.NewEncoder(bw), dec: gob.NewDecoder(bufio.NewReader(conn))}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("rpc: transport is closed")
	}
	t.streamActive[sc] = struct{}{}
	t.mu.Unlock()
	return sc, nil
}

// releaseStream returns a healthy connection to the pool; an unhealthy one
// (failed exchange, cancellation, errored trailer) is closed — its codec
// state is mid-message and unusable.
func (t *Transport) releaseStream(domainID int, sc *streamConn, healthy bool) {
	t.mu.Lock()
	delete(t.streamActive, sc)
	if healthy && !t.closed {
		t.streams[domainID] = append(t.streams[domainID], sc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	sc.conn.Close()
}

// SendStream implements dist.Transport over the framed gob protocol: the
// request goes out with the context's remaining time budget stamped as a
// relative duration (the remote domain observes the leader's cancellation
// horizon without the two machines' clocks having to agree), and fragments
// are handed to sink as they arrive, racing ctx. On cancellation the
// connection is severed, which both unblocks the reader and makes the
// remote domain abort its batch at the next fragment write.
func (t *Transport) SendStream(ctx context.Context, domainID int, req *dist.CandidateRequest, sink func(*dist.CandidateFragment) error) error {
	if domainID < 0 || domainID >= len(t.addrs) {
		return fmt.Errorf("rpc: domain %d out of range [0,%d): %w", domainID, len(t.addrs), dist.ErrNoSuchDomain)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sc, err := t.acquireStream(ctx, domainID)
	if err != nil {
		return err
	}
	wireReq := *req
	if dl, ok := ctx.Deadline(); ok {
		wireReq.Timeout = int64(time.Until(dl))
	}
	if err := sc.enc.Encode(&wireReq); err != nil {
		t.releaseStream(domainID, sc, false)
		return fmt.Errorf("rpc: domain %d stream request: %w", domainID, err)
	}
	if err := sc.bw.Flush(); err != nil {
		t.releaseStream(domainID, sc, false)
		return fmt.Errorf("rpc: domain %d stream request: %w", domainID, err)
	}

	type decoded struct {
		frag *dist.CandidateFragment
		err  error
	}
	frames := make(chan decoded)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			f := new(dist.CandidateFragment)
			err := sc.dec.Decode(f)
			select {
			case frames <- decoded{frag: f, err: err}:
			case <-stop:
				return
			}
			if err != nil || f.Done {
				return
			}
		}
	}()
	for {
		select {
		case <-ctx.Done():
			// Sever the connection: the reader goroutine unblocks with a
			// read error, and the domain aborts at its next fragment write.
			t.releaseStream(domainID, sc, false)
			return ctx.Err()
		case d := <-frames:
			if d.err != nil {
				t.releaseStream(domainID, sc, false)
				return fmt.Errorf("rpc: domain %d stream: %w", domainID, d.err)
			}
			if d.frag.Done && d.frag.Err != "" {
				// Batch-level failure flattened by the domain (a remote
				// context error, or a request the domain refused). The
				// domain drops the connection after an errored exchange;
				// so do we.
				t.releaseStream(domainID, sc, false)
				return fmt.Errorf("rpc: domain %d stream: %s", domainID, d.frag.Err)
			}
			if err := sink(d.frag); err != nil {
				t.releaseStream(domainID, sc, false)
				return err
			}
			if d.frag.Done {
				t.releaseStream(domainID, sc, true)
				return nil
			}
		}
	}
}

// serveConn answers framed-gob stream exchanges on one connection until
// the peer hangs up: the preamble, then one CandidateRequest in, a
// fragment stream out, and the next request on the same connection. A
// connection that does not open with the preamble is dropped unanswered.
// Fan-out cancellation rides the write path — AnswerStream's emit fails as
// soon as the peer is gone.
func (s *Server) serveConn(conn net.Conn) {
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(conn, magic); err != nil || string(magic) != streamMagic {
		return // closed before a full preamble, or not this protocol
	}
	dec := gob.NewDecoder(bufio.NewReader(conn))
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	for {
		req := new(dist.CandidateRequest)
		if err := dec.Decode(req); err != nil {
			return // peer closed (or a framing error — either way the conn is done)
		}
		//sofvet:ignore ctxflow the conn is the cancellation signal: a dead peer fails the next per-fragment flush
		err := s.dom.AnswerStream(context.Background(), req, func(f *dist.CandidateFragment) error {
			if err := enc.Encode(f); err != nil {
				return err
			}
			// Flush per fragment: the leader must see it now, and a dead
			// peer must fail this write so the batch aborts.
			return bw.Flush()
		})
		if err != nil {
			// Best-effort errored trailer (a remote context error or a
			// refused request, not an emit failure, can still reach a live
			// leader), then drop the connection: its codec state is
			// ambiguous after a failed exchange.
			enc.Encode(&dist.CandidateFragment{Done: true, Err: err.Error()})
			bw.Flush()
			return
		}
	}
}
