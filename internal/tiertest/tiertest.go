// Package tiertest is the conformance table of the beacon tiers: one
// row per front-door behaviour that every tier accepting beacons (or
// trunks) must share — what it refuses, sheds, drains and commits, and
// how — and one runner that checks a row against each tier a package
// describes in a Spec. The paper's auditor is only worth trusting over
// the vendor if every tier treats a beacon the same way, so that
// sameness is asserted here once, not once per package.
//
// It imports no tier package, so the collector's own tests can use it:
// a tier plugs in through Spec.Start, which builds it on the listener a
// row hands it. Rows run on an internal/memnet network (the tier serves
// it through daemon.WithListener, clients dial it through
// wsproto.Dialer.NetDial); a row that needs a kernel socket says why.
//
// A row reports by returning an error and never fails the test itself,
// so CatchesMutants can run it against a broken tier and require that
// it does.
package tiertest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/memnet"
	"adaudit/internal/store"
	"adaudit/internal/wsproto"
)

// Setup is what a row asks of the tier it starts.
type Setup struct {
	// Net is the row's network; a forwarding tier puts its upstream
	// collectors on it too.
	Net *memnet.Network
	// Listener is what the tier serves on (daemon.WithListener).
	Listener net.Listener
	// MaxSessions caps beacon sessions (0: no cap). Origins is the
	// allowlist of a tier that filters origins.
	MaxSessions int
	Origins     []string
	// Beacon, when set, adjusts the tier's beacon endpoint before it
	// serves.
	Beacon func(*beacon.Server)
}

// Server is a tier's daemon.
type Server interface {
	Serve(context.Context) error
	Close() error
	Addr() net.Addr
}

// Tier is a tier a Spec started.
type Tier struct {
	// Tier is what the daemon shell serves: rows read its Beacon,
	// Telemetry and Drain.
	daemon.Tier
	// Server is built on Setup.Listener and not yet serving.
	Server Server
	// Records returns every impression stored behind the tier (at a
	// forwarding tier: in its collectors), and Anonymizer is what
	// pseudonymised their peers.
	Records    func() []store.Impression
	Anonymizer *ipmeta.Anonymizer
}

// Series names one series in a tier's registry.
type Series struct {
	Name   string
	Labels map[string]string
}

// Labelled is the family name whose series differ by the value of key.
func Labelled(name, key string) func(string) Series {
	return func(v string) Series { return Series{name, map[string]string{key: v}} }
}

// Trunk is what a tier's /trunk endpoint counts a refusal on.
type Trunk struct {
	// Token is the trunk credential (trunk.TokenHeader) it requires.
	Token string
	// Refused each move by one on every refused first message,
	// Unauthorized on every handshake refused for its token; Unmoved
	// must move on neither.
	Refused, Unauthorized, Unmoved []Series
}

// Spec describes a tier to the table: how to start it and where it
// differs from the others.
type Spec struct {
	// Name is the tier's name: its subtest's, and the middle of the
	// series every tier keeps (adaudit_<Name>_connections_total,
	// _upgrades_total{via}, _events_total).
	Name  string
	Start func(t *testing.T, s Setup) *Tier

	// DrainClose is the close a drained session, and an upgrade that
	// races the drain, is given.
	DrainClose wsproto.CloseError
	// ShedsWhileDraining: once draining, the tier sheds a beacon request
	// with 503 (an edge hands it to another replica) instead of
	// upgrading it to close it with DrainClose (a collector).
	ShedsWhileDraining bool
	// RetryAfter is every shed's Retry-After header, ShedBody its body by
	// the shed's reason.
	RetryAfter string
	ShedBody   func(reason string) string
	// FiltersOrigins: the tier admits only Setup.Origins.
	FiltersOrigins bool
	// Sheds names the series a shed counts on by its reason; Rejects the
	// one a failed beacon connection counts on by its beacon.Fail* class
	// (nil: the tier counts none); Panics the recovered session panics
	// (zero: not counted apart).
	Sheds, Rejects func(string) Series
	Panics         Series
	// Trunk is the tier's /trunk endpoint; nil when it serves none.
	Trunk *Trunk
	// Healthz is the /healthz body of the tier at rest, without
	// uptime_seconds; a check given without a value is a measurement,
	// any non-negative number. Nil checks only the shared schema.
	Healthz func(*Tier) map[string]any
	// Golden is the file that pins the shape of /api/metrics after one
	// session; "" when no tier package names the tier's series.
	// GoldenBeforeSessions reads it before any: the collector's golden
	// predates the sessions_closed_total{reason} series a session adds.
	Golden               string
	GoldenBeforeSessions bool
}

// Row is one behaviour of the table.
type Row struct {
	Name string
	// exempt says why a tier is exempt from the row, or "".
	exempt func(*Spec) string
	run    func(*run) error
}

// patience bounds every wait of a row; a mutant is given less, since
// what it breaks never arrives.
const (
	patience       = 5 * time.Second
	mutantPatience = time.Second / 4
)

// Check runs row against each tier: one tier in t itself, several in a
// parallel subtest each.
func Check(t *testing.T, row *Row, specs ...Spec) {
	if len(specs) == 1 {
		check(t, row, specs[0])
		return
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			check(t, row, spec)
		})
	}
}

func check(t *testing.T, row *Row, spec Spec) {
	if row.exempt != nil {
		if why := row.exempt(&spec); why != "" {
			t.Logf("%s: %s is exempt: %s", row.Name, spec.Name, why)
			return
		}
	}
	if err := row.run(&run{t: t, spec: &spec, patience: patience}); err != nil {
		t.Errorf("%s: %v", row.Name, err)
	}
}

// Mutant is a tier with one behaviour broken, and the rows that must
// catch it.
type Mutant struct {
	Name  string
	Spec  Spec
	Kills []*Row
}

// broken returns spec with f applied to its beacon endpoint after
// whatever a row sets there: a mutant built from the endpoint's
// exported fields alone.
func broken(spec Spec, f func(*beacon.Server)) Spec {
	start := spec.Start
	spec.Start = func(t *testing.T, s Setup) *Tier {
		row := s.Beacon
		s.Beacon = func(b *beacon.Server) {
			if row != nil {
				row(b)
			}
			f(b)
		}
		return start(t, s)
	}
	return spec
}

// CatchesMutants runs every row each mutant names against it and fails
// unless the row returns an error.
func CatchesMutants(t *testing.T, mutants ...Mutant) {
	for _, m := range mutants {
		for _, row := range m.Kills {
			t.Run(m.Name+"/"+row.Name, func(t *testing.T) {
				t.Parallel()
				err := row.run(&run{t: t, spec: &m.Spec, patience: mutantPatience, mutant: true})
				if err == nil {
					t.Fatalf("row %q passes against the mutant %q", row.Name, m.Name)
				}
				t.Logf("caught: %v", err)
			})
		}
	}
}

// Serve runs srv until the test ends. stop ends it sooner and returns
// what Serve returned, or an error if it had not returned 10 s after
// shutdown began; after the first call stop returns nil.
func Serve(t testing.TB, srv Server) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	var once sync.Once
	stop = func() (err error) {
		once.Do(func() {
			cancel()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				err = errors.New("server still serving 10 s after shutdown began")
			}
		})
		return err
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	})
	return stop
}

// WaitFor polls cond until it holds, failing t after 10 s.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if err := await(10*time.Second, what, cond); err != nil {
		t.Fatal(err)
	}
}

func await(d time.Duration, what string, cond func() bool) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(d); !cond(); <-tick.C {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", d, what)
		}
	}
	return nil
}

// Payload is the i-th test impression: its own creative, one of three
// publishers, and a fresh nonce.
func Payload(i int) beacon.Payload {
	return beacon.Payload{
		CampaignID: "Tier-001",
		CreativeID: fmt.Sprintf("cr-%d", i),
		PageURL:    fmt.Sprintf("http://pub%d.es/page", i%3),
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		Nonce:      beacon.NewNonce(),
	}
}

// Stored is the Records of a tier that stores into stores.
func Stored(stores ...*store.Store) func() []store.Impression {
	return func() (out []store.Impression) {
		for _, st := range stores {
			st.Visit(func(im *store.Impression) bool {
				out = append(out, *im)
				return true
			})
		}
		return out
	}
}

// run is one row against one tier.
type run struct {
	t        *testing.T
	spec     *Spec
	patience time.Duration
	mutant   bool // errors are expected: a subtest does not fail on one

	net  *memnet.Network
	dial func(ctx context.Context, network, addr string) (net.Conn, error)
	tier *Tier
	addr string
	stop func() error
}

// fresh is a run of the same row on a network and tier of its own.
func (r *run) fresh() *run {
	return &run{t: r.t, spec: r.spec, patience: r.patience, mutant: r.mutant}
}

// start starts the tier on s and serves it.
func (r *run) start(s Setup) *Tier {
	r.build(s)
	r.stop = Serve(r.t, r.tier.Server)
	return r.tier
}

// build starts the tier on s without serving it. Unless s names them,
// the network is the row's and the listener is bound on it at
// "<Name>:80".
func (r *run) build(s Setup) *Tier {
	if s.Net == nil {
		s.Net = r.network()
	}
	if s.Listener == nil {
		s.Listener = r.listen(r.spec.Name + ":80")
	}
	r.dial = r.net.Dial
	if s.Listener.Addr().Network() == "tcp" {
		r.dial = (&net.Dialer{}).DialContext
	}
	r.tier = r.spec.Start(r.t, s)
	r.addr = r.tier.Server.Addr().String()
	r.t.Cleanup(func() { _ = r.tier.Server.Close() })
	return r.tier
}

// network is the row's network, buffered: a head and the frames written
// with it go out in one write while the server answers.
func (r *run) network() *memnet.Network {
	if r.net == nil {
		r.net = &memnet.Network{Buffer: 64 << 10}
	}
	return r.net
}

// listen binds addr on the row's network.
func (r *run) listen(addr string) net.Listener {
	ln, err := r.network().Listen(addr)
	if err != nil {
		r.t.Fatal(err) // each row binds an address once
	}
	return ln
}

// sub runs f as the subtest name, which fails on f's error unless the
// tier is a mutant, and returns that error.
func (r *run) sub(name string, f func() error) (err error) {
	r.t.Run(name, func(t *testing.T) {
		if err = f(); err != nil && !r.mutant {
			t.Error(err)
		}
	})
	return err
}

func (r *run) await(what string, cond func() bool) error { return await(r.patience, what, cond) }

func (r *run) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), r.patience)
	r.t.Cleanup(cancel)
	return ctx
}

// wsDial opens a WebSocket to path on the tier.
func (r *run) wsDial(path string, h http.Header) (*wsproto.Conn, *http.Response, error) {
	return (&wsproto.Dialer{NetDial: r.dial, Header: h}).Dial(r.ctx(), "ws://"+r.addr+path)
}

// client is a beacon client of the tier.
func (r *run) client() *beacon.Client {
	return &beacon.Client{CollectorURL: "ws://" + r.addr + "/beacon", Dialer: wsproto.Dialer{NetDial: r.dial}}
}

// http is an HTTP client of the tier; dials, when set, counts its
// connections.
func (r *run) http(dials *int) *http.Client {
	return &http.Client{Timeout: r.patience, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if dials != nil {
				*dials++
			}
			return r.dial(ctx, network, addr)
		},
	}}
}

// value reads s from the tier's registry (0 if it is not there).
func (r *run) value(s Series) float64 {
	v, _ := r.tier.Telemetry.Find(s.Name, s.Labels)
	return v.Value
}

// own names one of the series every tier keeps.
func (r *run) own(suffix string, labels map[string]string) Series {
	return Series{"adaudit_" + r.spec.Name + "_" + suffix, labels}
}

// upgrades reads the upgrade counters: answered at the front, and by
// net/http.
func (r *run) upgrades() (inPlace, netHTTP float64) {
	return r.value(r.own("upgrades_total", map[string]string{"via": "in-place"})),
		r.value(r.own("upgrades_total", map[string]string{"via": "net-http"}))
}

func (r *run) stored() int { return len(r.tier.Records()) }

// moved runs f and returns how far s moved meanwhile.
func (r *run) moved(s Series, f func() error) (float64, error) {
	before := r.value(s)
	err := f()
	return r.value(s) - before, err
}

// wantClose reads conn until the server's close arrives and requires it
// to be want.
func (r *run) wantClose(conn *wsproto.Conn, want wsproto.CloseError, what string) error {
	_ = conn.SetReadDeadline(time.Now().Add(r.patience))
	for {
		_, _, err := conn.ReadMessage()
		var ce *wsproto.CloseError
		switch {
		case errors.As(err, &ce) && *ce == want:
			return nil
		case ce != nil:
			return fmt.Errorf("%s closed %d %q, want %d %q", what, ce.Code, ce.Reason, want.Code, want.Reason)
		case err != nil:
			return fmt.Errorf("%s ended with %v, not a close frame", what, err)
		}
	}
}
