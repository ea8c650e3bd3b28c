// Package rpc carries the dist candidate protocol over TCP, so domain
// controllers run as separate OS processes: Serve answers
// dist.CandidateRequests with a dist.Domain, its own graph and oracle
// (served by cmd/sofdomain or embedded in a test), and Transport is the
// leader-side dist.Transport that pools connections per domain and
// propagates context deadlines onto the wire.
//
// The wire protocol is a framed gob exchange (see stream.go): the leader
// writes one dist.CandidateRequest, the domain answers with a stream of
// dist.CandidateFragments ending in a Done trailer. The messages are
// exactly the ones the in-process ChannelTransport hands its sink; the
// equivalence tests pin the two transports to bit-identical forest costs,
// and the codec helpers in this package apply the same gob encoding so
// captured payloads can be replayed and fuzzed. A request the domain
// refuses (ids outside its graph) comes back as an errored trailer. A leader that gives up severs the
// connection, and the domain aborts its batch at the next fragment write.
package rpc

import (
	"net"
	"sync"

	"sof/internal/dist"
)

// Server is a running serve loop: a listener plus the connections it has
// accepted, all torn down by Close.
type Server struct {
	lis net.Listener
	dom *dist.Domain
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts accepting connections on lis in a background goroutine,
// one stream-serving goroutine per connection, each answered by dom. The
// domain's graph must be built identically to the leader's (same topology
// generator, seed, costs, failures, and chain options) for the
// graph-state handshake to pass. The caller owns the returned Server and
// must Close it.
func Serve(lis net.Listener, dom *dist.Domain) *Server {
	s := &Server{lis: lis, dom: dom, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			// Close closed the listener (or the listener died); either way
			// the loop is done.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Addr returns the listener's address — useful with a ":0" listener.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, severs every live connection, and waits for the
// per-connection goroutines to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//sofvet:ignore detorder teardown: each conn is severed independently and net.Conn has no sort key
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
