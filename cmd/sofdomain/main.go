// Command sofdomain runs one SOF domain controller as a standalone OS
// process: it reconstructs the evaluation network deterministically from
// flags (so the leader and every domain agree on the graph and its cost
// epoch without shipping topology over the wire) and serves candidate
// service-chain requests over the framed-gob streaming exchange:
// candidates leave as fragments the moment they are solved, and a leader
// that hangs up cancels the batch mid-flight.
//
// A three-domain deployment is three sofdomain processes plus one leader
// pointing a dist/rpc.Transport at them (the leader must be built with
// the same -net and -seed; the protocol's topology-digest handshake
// refuses mismatched domains):
//
//	sofdomain -listen 127.0.0.1:9101 -net softlayer -seed 0 &
//	sofdomain -listen 127.0.0.1:9102 -net softlayer -seed 0 &
//	sofdomain -listen 127.0.0.1:9103 -net softlayer -seed 0 &
//	experiments -dist -domain-addrs 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103
//
// Every domain answers any (source, last VM) pairs it is sent;
// which pairs a domain owns is the leader's partitioning decision, so the
// same server binary works for any domain count.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"sof/internal/chain"
	"sof/internal/dist"
	distrpc "sof/internal/dist/rpc"
	"sof/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sofdomain: ")
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to serve candidate streams on")
		netKind     = flag.String("net", "softlayer", "topology: softlayer|cogent|inet")
		vms         = flag.Int("vms", exp.DefaultVMs, "number of VM nodes")
		seed        = flag.Int64("seed", 0, "topology seed (must match the leader's)")
		inetNodes   = flag.Int("inet-nodes", 1000, "node count for -net inet")
		sourceSetup = flag.Bool("source-setup", false, "include source setup costs in chains (Appendix D)")
	)
	flag.Parse()

	network, err := exp.BuildNet(exp.NetKind(*netKind), *vms, *seed, *inetNodes)
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := distrpc.Serve(lis, dist.NewDomain(network.G, chain.Options{SourceSetupCost: *sourceSetup}))
	log.Printf("serving %s (seed %d, %d nodes, %d VMs, cost epoch %d) on %s",
		*netKind, *seed, network.G.NumNodes(), len(network.VMs), network.G.CostEpoch(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
