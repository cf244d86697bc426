// Package collectortest starts collectors for the tests of the tiers
// that front them and of the daemons that run them. The collector's own
// tests cannot import it (it imports the collector) and keep their own
// fixture.
package collectortest

import (
	"net"
	"testing"
	"time"

	"adaudit/internal/collector"
	"adaudit/internal/daemon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
)

// TrunkToken guards the /trunk endpoint of every collector Serve starts.
const TrunkToken = "trunk-secret"

// Anonymizer pseudonymises the peers of every collector Serve starts.
var Anonymizer = ipmeta.NewAnonymizer([]byte("collectortest"))

// New builds a collector over st — its /trunk guarded by TrunkToken,
// keepalive every 50 ms, then cfg applied — and its server on ln with
// opts, not yet serving.
func New(t testing.TB, st *store.Store, ln net.Listener, cfg func(*collector.Config), opts ...collector.ServerOption) (*collector.Collector, *collector.Server) {
	t.Helper()
	conf := collector.Config{
		Store:             st,
		Anonymizer:        Anonymizer,
		TrunkToken:        TrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	}
	if cfg != nil {
		cfg(&conf)
	}
	c, err := collector.New(conf)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collector.NewServer(c, "", append(opts, daemon.WithListener(ln))...)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

// Serve is New, served until the test ends; stop shuts it down sooner,
// gracefully.
func Serve(t testing.TB, st *store.Store, ln net.Listener, cfg func(*collector.Config), opts ...collector.ServerOption) (c *collector.Collector, stop func() error) {
	t.Helper()
	c, srv := New(t, st, ln, cfg, opts...)
	return c, tiertest.Serve(t, srv)
}

// TCP listens on addr ("127.0.0.1:0" for a free port).
func TCP(t testing.TB, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
