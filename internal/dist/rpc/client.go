package rpc

import (
	"sync"

	"sof/internal/dist"
)

// Transport is the leader-side dist.Transport over the stream protocol: a
// pool of lazily dialed connections per domain, keyed by domain ID and
// shared by concurrent embeddings. Each exchange takes a connection to
// itself and returns it to the pool only after a clean Done trailer; a
// failed, cancelled, or errored exchange closes its connection instead
// (its codec state is mid-message), so the cluster's retry redials a
// possibly recovered domain and a concurrent embedding's healthy stream on
// another connection is never cut down.
type Transport struct {
	addrs []string

	mu     sync.Mutex
	closed bool
	// streams pools idle connections per domain (see stream.go);
	// streamActive tracks the ones inside a SendStream so Close severs
	// in-flight streams instead of leaking them.
	streams      map[int][]*streamConn
	streamActive map[*streamConn]struct{}
}

var _ dist.Transport = (*Transport)(nil)

// NewTransport returns a transport that reaches domain i at addrs[i].
func NewTransport(addrs []string) *Transport {
	return &Transport{
		addrs:        append([]string(nil), addrs...),
		streams:      make(map[int][]*streamConn),
		streamActive: make(map[*streamConn]struct{}),
	}
}

// Close severs every connection — pooled ones and streams mid-exchange.
// SendStreams after Close fail.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pooled := t.streams
	t.streams = nil
	active := make([]*streamConn, 0, len(t.streamActive))
	for sc := range t.streamActive {
		//sofvet:ignore detorder teardown: each stream conn is closed independently and has no sort key
		active = append(active, sc)
	}
	t.mu.Unlock()
	for _, pool := range pooled {
		for _, sc := range pool {
			sc.conn.Close()
		}
	}
	for _, sc := range active {
		sc.conn.Close()
	}
	return nil
}
