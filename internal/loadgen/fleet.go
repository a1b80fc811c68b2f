package loadgen

import (
	"fmt"
	"net"
	"net/http"

	"gossip/internal/server"
)

// Fleet is n in-process gossipds sharing one membership list — the
// zero-setup harness for the distributed features (partitioned cache,
// sharded execution) used by tests and experiments. Real-process fleets
// (the CI distributed-smoke job) are launched from the Makefile instead.
type Fleet struct {
	Members []*Local
}

// StartFleet boots n servers on loopback listeners, all configured with
// the full peer list so every member can forward cache traffic and
// coordinate sharded jobs across the others. cfg applies to every
// member (Peers/Advertise are overwritten). No binary calls it: it is
// the in-process fleet of four test packages (cmd/gossipd,
// internal/server, internal/loadgen and the root's dist_bench_test.go),
// which is why it is exported from here and not from one of them.
func StartFleet(n int, cfg server.Config) (*Fleet, error) {
	if n < 2 {
		return nil, fmt.Errorf("loadgen: a fleet needs at least 2 members, got %d", n)
	}
	// Bind every listener first: the membership list must be complete
	// before any server starts.
	listeners := make([]net.Listener, 0, n)
	peers := make([]string, 0, n)
	closeAll := func() {
		for _, lis := range listeners {
			_ = lis.Close()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, lis)
		peers = append(peers, lis.Addr().String())
	}
	f := &Fleet{Members: make([]*Local, 0, n)}
	for i, lis := range listeners {
		mcfg := cfg
		mcfg.Peers = peers
		mcfg.Advertise = peers[i]
		s := server.New(mcfg)
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(lis) }()
		f.Members = append(f.Members, &Local{Server: s, URL: "http://" + lis.Addr().String(), hs: hs})
	}
	return f, nil
}

// URLs returns the member base URLs in membership order.
func (f *Fleet) URLs() []string {
	out := make([]string, len(f.Members))
	for i, m := range f.Members {
		out[i] = m.URL
	}
	return out
}

// Close drains and shuts every member down.
func (f *Fleet) Close() {
	for _, m := range f.Members {
		m.Close()
	}
}
