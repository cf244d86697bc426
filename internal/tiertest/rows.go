package tiertest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/faultnet"
	"adaudit/internal/trunk"
	"adaudit/internal/trunk/trunktest"
	"adaudit/internal/wsproto"
)

var cookieHead = "Cookie: " + strings.Repeat("c", 8<<10) + "\r\n" // too long for the front: net/http upgrades it

// FrontRefusals (row 1): every refusal of a beacon upgrade comes back
// through the tier's front as the bytes its handler alone (net/http
// accepting for itself) answers, counted where the handler counts it;
// at the session cap a clean upgrade is not answered in place but shed
// by the handler. The origin cases bind only a tier that filters
// origins: a collector admits every origin.
var FrontRefusals = &Row{Name: "front refusals are the handler's", run: func(r *run) error {
	r.start(Setup{MaxSessions: 1, Origins: []string{"ads.example.com"}})
	ref := r.handlerAlone()
	allowed := ""
	if r.spec.FiltersOrigins {
		allowed = "Origin: https://ads.example.com\r\n"
	}
	head := upgradeHead(allowed)
	cases := []struct{ name, raw, status, has, shed, reject string }{
		{"post", closing(strings.Replace(head, "GET", "POST", 1)), "405 Method Not Allowed", "method not GET", "", beacon.FailUpgrade},
		{"missing key", closing(strings.Replace(head, "Sec-WebSocket-Key: "+key+"\r\n", "", 1)), "400 Bad Request", "missing Sec-WebSocket-Key", "", beacon.FailUpgrade},
		{"short key", closing(strings.Replace(head, key, "AAAAAAAAAAAAAAAAAAAA", 1)), "400 Bad Request", "bad Sec-WebSocket-Key", "", beacon.FailUpgrade},
		{"version 8", closing(strings.Replace(head, "Version: 13", "Version: 8", 1)), "426 Upgrade Required", "Sec-Websocket-Version: 13\r\n", "", beacon.FailUpgrade},
		{"no upgrade token", closing(strings.Replace(head, "Upgrade: websocket\r\n", "", 1)), "400 Bad Request", "missing Upgrade: websocket", "", beacon.FailUpgrade},
		// net/http refuses it before any handler runs: nothing counts it.
		{"malformed head", "GET /beacon HTTP/1.1\r\nHost: a b\r\n\r\n", "400 Bad Request", "malformed Host header", "", ""},
	}
	if r.spec.FiltersOrigins {
		cases = append(cases, []struct{ name, raw, status, has, shed, reject string }{
			{"foreign origin", closing(upgradeHead("Origin: https://evil.example.net\r\n")), "403 Forbidden", "origin not allowed", "origin", ""},
			{"no origin", closing(upgradeHead("")), "403 Forbidden", "origin not allowed", "origin", ""},
			{"empty origin before an allowed one", closing(upgradeHead("Origin:\r\n" + allowed)), "403 Forbidden", "origin not allowed", "origin", ""},
		}...)
	}
	for _, tc := range cases {
		var counter Series
		switch {
		case tc.shed != "":
			counter = r.spec.Sheds(tc.shed)
		case tc.reject != "" && r.spec.Rejects != nil:
			counter = r.spec.Rejects(tc.reject)
		}
		var got, want string
		counted, err := r.moved(counter, func() (err error) {
			if got, err = r.exchange(r.addr, tc.raw); err == nil {
				want, err = r.exchange(ref, tc.raw)
			}
			return err
		})
		switch {
		case err != nil:
			return fmt.Errorf("%s: %w", tc.name, err)
		case got != want:
			return fmt.Errorf("%s: through the front\n%q\nfrom the handler alone\n%q", tc.name, got, want)
		case !strings.HasPrefix(got, "HTTP/1.1 "+tc.status) || !strings.Contains(got, tc.has):
			return fmt.Errorf("%s: answer %q, want a %s mentioning %q", tc.name, got, tc.status, tc.has)
		case counter.Name != "" && counted != 2:
			return fmt.Errorf("%s: %s moved by %v over the two servers, want 2", tc.name, counter.Name, counted)
		}
	}
	if in, via := r.upgrades(); in+via != 0 {
		return fmt.Errorf("upgrades: %v in place, %v through net/http; none was made", in, via)
	}

	// One admitted session fills the cap; the next clean upgrade is the
	// handler's to shed.
	conn, _, err := r.wsDial("/beacon", http.Header{"Origin": {"https://ads.example.com"}})
	if err != nil {
		return err
	}
	defer conn.NetConn().Close()
	if err := r.await("the session to be tracked", func() bool { return r.tier.Beacon.Tracked() == 1 }); err != nil {
		return err
	}
	if in, via := r.upgrades(); in != 1 || via != 0 {
		return fmt.Errorf("upgrades: %v in place, %v through net/http; want 1, 0", in, via)
	}
	if err := r.shed(ref, head, "capacity"); err != nil {
		return err
	}
	if in, via := r.upgrades(); in+via != 1 {
		return fmt.Errorf("%v upgrades counted after a shed, want the 1 from before", in+via)
	}
	return nil
}}

// BothPathsCommit (row 2): a session whose payload rides in the
// handshake's write commits whether the front answers the upgrade in
// place or — its head too long for the front's buffer — net/http does;
// each path is counted (and timed, where the tier keeps the upgrade
// histogram), nothing stays tracked, and the two records differ in
// nothing the sessions did not.
var BothPathsCommit = &Row{Name: "both upgrade paths commit", run: func(r *run) error {
	r.start(Setup{})
	p := Payload(0)
	for i, extra := range []string{"Origin: http://pub0.es\r\n", cookieHead} {
		p.Nonce = fmt.Sprintf("both-paths-%d", i)
		if err := r.rawSession(upgradeHead(extra), p); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		if err := r.await("the impression to land", func() bool { return r.stored() == i+1 }); err != nil {
			return err
		}
		if in, via := r.upgrades(); in != 1 || via != float64(i) {
			return fmt.Errorf("after session %d: %v in place, %v through net/http; want 1, %d", i, in, via, i)
		}
		if h := r.tier.Beacon.Upgrade; h != nil && h.Snapshot().Count != uint64(i+1) {
			return fmt.Errorf("after session %d: upgrade_seconds observed %d times, want %d", i, h.Snapshot().Count, i+1)
		}
	}
	if n := r.value(r.own("connections_total", nil)); n != 2 {
		return fmt.Errorf("connections = %v, want 2", n)
	}
	if err := r.await("nothing tracked", func() bool { return r.tier.Beacon.Tracked() == 0 }); err != nil {
		return err
	}
	recs := r.tier.Records()
	for i := range recs {
		recs[i].ID, recs[i].Nonce, recs[i].Timestamp, recs[i].Exposure = 0, "", time.Time{}, 0
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		return fmt.Errorf("records diverge between the paths:\n in place = %+v\n net/http = %+v", recs[0], recs[1])
	}
	return nil
}}

// PlainHTTP (row 3): every tier's operational routes answer through the
// front, over one kept-alive connection, and /metrics shows both
// upgrade series at zero.
var PlainHTTP = &Row{Name: "plain HTTP is left alone", run: func(r *run) error {
	r.start(Setup{})
	dials := 0
	client := r.http(&dials)
	var metrics string
	for i := 0; i < 2; i++ { // the second round rides the first's connection
		for _, path := range []string{"/healthz", "/metrics", "/api/metrics"} {
			code, body, _, err := r.get(client, path)
			if err != nil || code != http.StatusOK || body == "" {
				return fmt.Errorf("GET %s: %d, %d bytes, %v", path, code, len(body), err)
			}
			if path == "/metrics" {
				metrics = body
			}
		}
	}
	if dials != 1 {
		return fmt.Errorf("6 requests took %d connections, want 1 kept alive", dials)
	}
	for _, via := range []string{"in-place", "net-http"} {
		if series := fmt.Sprintf("adaudit_%s_upgrades_total{via=%q} 0", r.spec.Name, via); !strings.Contains(metrics, series) {
			return fmt.Errorf("/metrics lacks %q", series)
		}
	}
	return nil
}}

// UpgradeRacingDrain (row 4): an upgrade admitted just before the
// drain began is closed with the tier's drain close and leaves nothing
// tracked; once draining, an upgrade on either path is shed with the
// tier's draining 503 and no upgrade counted (an edge), or upgraded only
// to be closed the same way (a collector). No session runs.
var UpgradeRacingDrain = &Row{Name: "an upgrade races a drain", run: func(r *run) error {
	tr := r.start(Setup{})
	// The drain begins as the upgrade takes the connection over: after
	// admission, before the session.
	raced := r.listen(r.spec.Name + "-raced:80")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr.Beacon.ServeHTTP(drainOnHijack{w, tr.Beacon}, req)
	})}
	go srv.Serve(raced)
	defer srv.Close()
	conn, _, err := (&wsproto.Dialer{NetDial: r.dial}).Dial(r.ctx(), "ws://"+raced.Addr().String()+"/beacon")
	if err != nil {
		return err
	}
	defer conn.NetConn().Close()
	if err := r.wantClose(conn, r.spec.DrainClose, "the raced upgrade"); err != nil {
		return err
	}
	if err := r.await("the raced connection to be untracked", func() bool { return tr.Beacon.Tracked() == 0 }); err != nil {
		return err
	}

	ref := r.handlerAlone()
	in, via := r.upgrades()
	for _, extra := range []string{"", cookieHead} {
		check := r.drainedUpgrade
		if r.spec.ShedsWhileDraining {
			check = func(head string) error { return r.shed(ref, head, "draining") }
		}
		if err := check(upgradeHead(extra)); err != nil {
			return err
		}
	}
	if in2, via2 := r.upgrades(); r.spec.ShedsWhileDraining && in2+via2 != in+via {
		return fmt.Errorf("%v upgrades counted while shedding the drain, want none", in2+via2-in-via)
	}
	if err := r.await("nothing tracked", func() bool { return tr.Beacon.Tracked() == 0 }); err != nil {
		return err
	}
	if n := r.stored(); n != 0 {
		return fmt.Errorf("%d impressions stored during the drain", n)
	}
	return nil
}}

// drainedUpgrade sends head and requires a 101 followed by the drain
// close.
func (r *run) drainedUpgrade(head string) error {
	nc, err := r.dial(r.ctx(), "tcp", r.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, head); err != nil {
		return err
	}
	_ = nc.SetReadDeadline(time.Now().Add(r.patience))
	br := bufio.NewReader(nc)
	if err := skipHead(br); err != nil {
		return err
	}
	f, err := wsproto.ReadFrame(br, 1<<10)
	if err != nil || f.Opcode != wsproto.OpClose {
		return fmt.Errorf("frame %+v, %v; want a close", f, err)
	}
	if code, reason, _ := wsproto.DecodeClosePayload(f.Payload); code != r.spec.DrainClose.Code || reason != r.spec.DrainClose.Reason {
		return fmt.Errorf("upgrade during the drain closed %d %q, want %d %q", code, reason, r.spec.DrainClose.Code, r.spec.DrainClose.Reason)
	}
	return nil
}

// drainOnHijack begins the drain when the upgrade hijacks the
// connection.
type drainOnHijack struct {
	http.ResponseWriter
	b *beacon.Server
}

func (w drainOnHijack) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	w.b.Drain(0)
	return w.ResponseWriter.(http.Hijacker).Hijack()
}

// DrainedSession (row 5): a session still open when the drain begins is
// closed with the tier's drain close — the one an upgrade racing the
// drain gets, not a protocol error — and its impression still commits,
// ended by the drain, before the drain returns with nothing left.
var DrainedSession = &Row{Name: "a drained session commits", run: func(r *run) error {
	tr := r.start(Setup{})
	conn, _, err := r.wsDial("/beacon", nil)
	if err != nil {
		return err
	}
	defer conn.NetConn().Close()
	// A counted update proves the session is past its payload.
	for _, msg := range []string{Payload(2).Encode(), beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: time.Millisecond})} {
		if err := conn.WriteText(msg); err != nil {
			return err
		}
	}
	if err := r.await("the update to be counted", func() bool { return r.value(r.own("events_total", nil)) == 1 }); err != nil {
		return err
	}
	drained := make(chan int, 1)
	go func() { drained <- tr.Drain(r.patience) }()
	if err := r.wantClose(conn, r.spec.DrainClose, "the drained session"); err != nil {
		return err
	}
	if left := <-drained; left != 0 {
		return fmt.Errorf("the drain left %d undelivered", left)
	}
	return r.await("the drained session's impression", func() bool { return r.stored() == 1 })
}}

// CapacityShed (row 6): at the session cap a beacon request is refused
// before the upgrade with the tier's 503, whose Retry-After the beacon
// client honours as a backoff floor, and counted; a WebSocket dial
// sees the same 503.
var CapacityShed = &Row{Name: "a capacity shed answers 503 with Retry-After", run: func(r *run) error {
	tr := r.start(Setup{MaxSessions: 1})
	sess, err := r.client().Open(r.ctx(), Payload(0))
	if err != nil {
		return err
	}
	defer sess.Close()
	if err := r.await("the session to be tracked", func() bool { return tr.Beacon.Tracked() == 1 }); err != nil {
		return err
	}
	sheds := r.spec.Sheds("capacity")
	var code int
	var body string
	var h http.Header
	counted, err := r.moved(sheds, func() (err error) {
		code, body, h, err = r.get(r.http(nil), "/beacon")
		return err
	})
	switch {
	case err != nil:
		return err
	case code != http.StatusServiceUnavailable:
		return fmt.Errorf("over the cap: %d, want 503", code)
	case h.Get("Retry-After") != r.spec.RetryAfter:
		return fmt.Errorf("shed Retry-After = %q, want %q", h.Get("Retry-After"), r.spec.RetryAfter)
	case body != r.spec.ShedBody("capacity"):
		return fmt.Errorf("shed body = %q, want %q", body, r.spec.ShedBody("capacity"))
	case counted != 1:
		return fmt.Errorf("%s moved by %v, want 1", sheds.Name, counted)
	}
	if _, resp, err := r.wsDial("/beacon", nil); err == nil || resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("a dial over the cap: %v, %v; want a 503 refusal", resp, err)
	}
	return nil
}}

// UnparseablePeer (row 7): a session whose peer address does not parse
// would commit a record without one, so it is closed 1008 "bad peer
// address" before anything is acked, committed, spilled or stored, and
// counted as a peer-addr reject where the tier counts rejects.
var UnparseablePeer = &Row{Name: "an unparseable peer gets 1008", run: func(r *run) error {
	tr := r.start(Setup{Listener: addrless{r.listen(r.spec.Name + ":80")}})
	conn, _, err := r.wsDial("/beacon", nil)
	if err != nil {
		return err
	}
	defer conn.NetConn().Close()
	_ = conn.WriteText(Payload(7).Encode())
	_ = conn.SetReadDeadline(time.Now().Add(r.patience))
	var ce *wsproto.CloseError
	if op, msg, err := conn.ReadMessage(); err == nil {
		return fmt.Errorf("the addressless session was answered (opcode %d, %q) before its close", op, msg)
	} else if !errors.As(err, &ce) || *ce != (wsproto.CloseError{Code: wsproto.ClosePolicyViolation, Reason: "bad peer address"}) {
		return fmt.Errorf("the addressless session ended with %v, want 1008 \"bad peer address\"", err)
	}
	if err := r.await("the session to end", func() bool { return tr.Beacon.Tracked() == 0 }); err != nil {
		return err
	}
	if c := r.own("commits_total", nil); r.value(c) != 0 {
		return fmt.Errorf("%s = %v, want 0", c.Name, r.value(c))
	}
	if tr.Health != nil {
		if spill := tr.Health().Checks["spill_pending"]; spill.Value != 0 {
			return fmt.Errorf("spill_pending = %v, want 0", spill.Value)
		}
	}
	if r.spec.Rejects != nil {
		if n := r.value(r.spec.Rejects(beacon.FailPeerAddr)); n != 1 {
			return fmt.Errorf("peer-addr rejects = %v, want 1", n)
		}
	}
	if n := r.stored(); n != 0 {
		return fmt.Errorf("stored %d impressions, want 0", n)
	}
	return nil
}}

// SessionPanic (row 8): a session that panics costs that session alone,
// told so with 1011; a session open beside it survives, and the next
// one is stored.
var SessionPanic = &Row{Name: "a panicking session gets 1011", run: func(r *run) error {
	tr := r.start(Setup{Beacon: func(b *beacon.Server) {
		decode := b.DecodeBinary
		if decode == nil {
			decode = func(p *beacon.Payload, msg []byte) (err error) { *p, err = beacon.DecodeBinary(msg); return err }
		}
		b.DecodeBinary = func(p *beacon.Payload, msg []byte) error {
			err := decode(p, msg)
			if p.CreativeID == "boom" {
				panic("injected session failure")
			}
			return err
		}
	}})
	client := r.client()
	client.Wire = beacon.WireBinary
	healthy, err := client.Open(r.ctx(), Payload(0))
	if err != nil {
		return err
	}
	defer healthy.Close()
	if err := r.await("the healthy session to be tracked", func() bool { return tr.Beacon.Tracked() == 1 }); err != nil {
		return err
	}

	conn, _, err := r.wsDial("/beacon", nil)
	if err != nil {
		return err
	}
	defer conn.NetConn().Close()
	bad := Payload(1)
	bad.CreativeID = "boom"
	if err := conn.WriteMessage(wsproto.OpBinary, bad.EncodeBinary()); err != nil {
		return err
	}
	if err := r.wantClose(conn, wsproto.CloseError{Code: wsproto.CloseInternalError, Reason: "internal error"}, "the panicked session"); err != nil {
		return err
	}
	if p := r.spec.Panics; p.Name != "" {
		if err := r.await("the panic to be counted", func() bool { return r.value(p) == 1 }); err != nil {
			return err
		}
	}
	if err := r.await("the panicked session to be untracked", func() bool { return tr.Beacon.Tracked() < 2 }); err != nil {
		return err
	}
	select {
	case <-healthy.Done():
		return fmt.Errorf("the healthy session died with the panicked one")
	default:
		if tr.Beacon.Tracked() != 1 {
			return fmt.Errorf("the healthy session is no longer tracked")
		}
	}
	if err := healthy.Close(); err != nil {
		return err
	}
	if err := client.Report(r.ctx(), Payload(2), 10*time.Millisecond); err != nil {
		return fmt.Errorf("the session after the panic: %w", err)
	}
	return r.await("both healthy impressions", func() bool { return r.stored() == 2 })
}}

// ShutdownMidHead (row 9): a connection parked in its request head
// does not hold shutdown up — Serve's, once its context is cancelled,
// or Close's — is closed by it, and the listener is gone after it. No
// mutant: the shutdown order is the daemon shell's, which no field of a
// tier reaches.
var ShutdownMidHead = &Row{Name: "shutdown with a connection mid-head", run: func(r *run) error {
	for how, stop := range map[string]func(*run) error{
		"Serve cancelled": func(r *run) error { return r.stop() },
		"Close":           func(r *run) error { return r.tier.Server.Close() },
	} {
		if err := r.fresh().shutdownMidHead(stop); err != nil {
			return fmt.Errorf("%s: %w", how, err)
		}
	}
	return nil
}}

func (r *run) shutdownMidHead(stop func(*run) error) error {
	r.start(Setup{})
	nc, err := r.dial(r.ctx(), "tcp", r.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "GET /beacon HTTP/1.1\r\nHost: ti"); err != nil {
		return err
	}
	if err := r.await("the front to read the head", r.net.Idle); err != nil {
		return err
	}
	start := time.Now()
	if err := stop(r); err != nil {
		return err
	}
	if took := time.Since(start); took > 2*time.Second {
		return fmt.Errorf("shutdown took %v with one connection mid-head", took)
	}
	_ = nc.SetReadDeadline(time.Now().Add(r.patience))
	if n, err := nc.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		return fmt.Errorf("read %d, %v from the parked connection; want it closed", n, err)
	}
	if nc, err := r.dial(r.ctx(), "tcp", r.addr); err == nil {
		nc.Close()
		return fmt.Errorf("the listener still accepts after shutdown")
	}
	return nil
}

// FaultListener (row 10): connections of a fault-injecting listener
// handed in through daemon.WithListener keep their wrapping on the
// in-place path — a plan that resets every write kills the 101, and
// nothing is counted, committed or left tracked. No mutant: the
// wrapping is the front's, which no field of a tier reaches.
var FaultListener = &Row{Name: "a fault-injecting listener keeps its grip", run: func(r *run) error {
	plan := &faultnet.Plan{Seed: 7, ResetWriteProb: 1}
	tr := r.start(Setup{Listener: plan.Listen(r.listen(r.spec.Name + ":80"))})
	if conn, _, err := r.wsDial("/beacon", nil); err == nil {
		conn.Close(wsproto.CloseNormal, "")
		return fmt.Errorf("a handshake completed over a listener that resets every write")
	}
	if resets, _, _, _ := plan.Stats(); resets == 0 {
		return fmt.Errorf("the plan injected nothing: the front lost the listener's wrapping")
	}
	if n := r.value(r.own("connections_total", nil)); n != 0 || tr.Beacon.Tracked() != 0 {
		return fmt.Errorf("connections = %v, tracked = %d; want none", n, tr.Beacon.Tracked())
	}
	return nil
}}

// TrunkRefusals (row 11): every first message the shared trunk receiver
// refuses (internal/trunk tests the close and its reason) is refused
// at the tier's /trunk, counted where the tier counts it, and acts on
// nothing: no commit relayed, nothing stored. A tier that serves no
// /trunk is exempt. No mutant: the refusals are trunk.Receiver's,
// which no field of a tier reaches.
var TrunkRefusals = &Row{Name: "/trunk refusals", exempt: func(s *Spec) string {
	if s.Trunk == nil {
		return "it serves no /trunk"
	}
	return ""
}, run: func(r *run) error {
	r.start(Setup{})
	tk := r.spec.Trunk
	counters := append(append([]Series{}, tk.Refused...), tk.Unmoved...)
	for _, tc := range trunktest.Refusals {
		if err := r.sub(tc.Name, func() error {
			before := make([]float64, len(counters))
			for i, s := range counters {
				before[i] = r.value(s)
			}
			conn, _, err := r.wsDial("/trunk", http.Header{trunk.TokenHeader: {tk.Token}})
			if err != nil {
				return err
			}
			defer conn.NetConn().Close()
			if err := conn.WriteMessage(tc.Op, tc.Msg); err != nil {
				return err
			}
			// The refusal is counted before the close is written.
			_ = conn.SetReadDeadline(time.Now().Add(r.patience))
			if _, _, err := conn.ReadMessage(); err == nil {
				return fmt.Errorf("the refused trunk was answered with a message")
			}
			for i, s := range counters {
				want := 0.0
				if i < len(tk.Refused) {
					want = 1
				}
				if moved := r.value(s) - before[i]; moved != want {
					return fmt.Errorf("%s moved by %v, want %v", s.Name, moved, want)
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("%s: %w", tc.Name, err)
		}
	}
	if n := r.stored(); n != 0 {
		return fmt.Errorf("refused trunks stored %d records", n)
	}
	return nil
}}

// Healthz (row 12, first half): /healthz answers in the one schema of
// every daemon — tier and id set, status the worst of its checks and
// the HTTP code its — and, where the spec pins it, with exactly the
// tier's body at rest.
var Healthz = &Row{Name: "the /healthz body", run: func(r *run) error {
	tr := r.start(Setup{})
	code, raw, _, err := r.get(r.http(nil), "/healthz")
	if err != nil {
		return err
	}
	var body map[string]any
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		return fmt.Errorf("/healthz %q: %w", raw, err)
	}
	if up, ok := body["uptime_seconds"].(float64); !ok || up < 0 {
		return fmt.Errorf("uptime_seconds = %v, want a non-negative number", body["uptime_seconds"])
	}
	delete(body, "uptime_seconds")
	checks, _ := body["checks"].(map[string]any)
	worst, rank := "ok", map[string]int{"ok": 0, "degraded": 1, "unhealthy": 2}
	for _, c := range checks {
		if s, _ := c.(map[string]any)["status"].(string); rank[s] > rank[worst] {
			worst = s
		}
	}
	wantCode := http.StatusOK
	if worst == "unhealthy" {
		wantCode = http.StatusServiceUnavailable
	}
	if id, _ := body["id"].(string); body["tier"] != r.spec.Name || id == "" || body["status"] != worst || code != wantCode {
		return fmt.Errorf("%d %v: want tier %q, an id, and status and code those of the worst check, %q", code, body, r.spec.Name, worst)
	}
	if r.spec.Healthz == nil {
		return nil
	}
	want := r.spec.Healthz(tr)
	for name, c := range want["checks"].(map[string]any) {
		if _, pinned := c.(map[string]any)["value"]; pinned {
			continue
		}
		got, _ := checks[name].(map[string]any)
		if v, ok := got["value"].(float64); !ok || v < 0 || math.IsNaN(v) {
			return fmt.Errorf("check %s = %v, want a measured value", name, got)
		}
		delete(got, "value")
	}
	if !reflect.DeepEqual(body, want) {
		return fmt.Errorf("/healthz body\n%v\nwant\n%v", body, want)
	}
	return nil
}}

// MetricsShape (row 12, second half): /api/metrics, read after one
// session (unless the spec says before) so that the tier's histograms
// are live, has the shape — every series' key and kind — its tier
// package's golden file pins. A tier whose series a test fixture names
// is exempt.
var MetricsShape = &Row{Name: "the /api/metrics shape", exempt: func(s *Spec) string {
	if s.Golden == "" {
		return "its series are named by a test fixture, not a tier package"
	}
	return ""
}, run: func(r *run) error {
	r.start(Setup{})
	if !r.spec.GoldenBeforeSessions {
		if err := r.client().Report(r.ctx(), Payload(12), 10*time.Millisecond); err != nil {
			return err
		}
		if err := r.await("the impression to land", func() bool { return r.stored() == 1 }); err != nil {
			return err
		}
	}
	_, raw, _, err := r.get(r.http(nil), "/api/metrics")
	if err != nil {
		return err
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal([]byte(raw), &metrics); err != nil {
		return fmt.Errorf("/api/metrics does not parse: %w", err)
	}
	var lines []string
	for key, v := range metrics {
		kind := "scalar"
		if strings.HasPrefix(strings.TrimSpace(string(v)), "{") {
			kind = "histogram"
		}
		lines = append(lines, key+" "+kind+"\n")
	}
	sort.Strings(lines)
	want, err := os.ReadFile(r.spec.Golden)
	if got := strings.Join(lines, ""); err != nil || got != string(want) {
		return fmt.Errorf("/api/metrics shape differs from %s (%v)\ngot:\n%s", r.spec.Golden, err, got)
	}
	return nil
}}

// CloseWithoutServe (row 13): a server that never served gives its
// port back on Close. It listens on TCP, because a port given back is a
// kernel socket's.
var CloseWithoutServe = &Row{Name: "close without serve", run: func(r *run) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tr := r.build(Setup{Listener: ln})
	if err := tr.Server.Close(); err != nil {
		return err
	}
	if nc, err := net.DialTimeout("tcp", ln.Addr().String(), r.patience); err == nil {
		nc.Close()
		return fmt.Errorf("the listener still accepts after Close")
	}
	return nil
}}

// IPv6Session (row 14): a client on an IPv6 socket is acked, and its
// impression stored under the pseudonym of its IPv6 address. It listens
// on TCP, because the peer address is a kernel socket's; on a host
// without IPv6 loopback the test is skipped.
var IPv6Session = &Row{Name: "an IPv6 session is stored", run: func(r *run) error {
	ln, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		r.t.Skipf("no IPv6 loopback on this host: %v", err)
	}
	tr := r.start(Setup{Listener: ln})
	if err := r.client().Report(r.ctx(), Payload(6), 20*time.Millisecond); err != nil {
		return err
	}
	if err := r.await("the impression to land", func() bool { return r.stored() == 1 }); err != nil {
		return err
	}
	want := tr.Anonymizer.Pseudonym(netip.MustParseAddr("::1"))
	if got := tr.Records()[0].IPPseudonym; got != want {
		return fmt.Errorf("stored pseudonym %q, want that of ::1 (%q)", got, want)
	}
	return nil
}}

// handlerAlone serves the tier's beacon endpoint at /beacon under a
// plain http.Server — net/http accepting for itself, no front — on the
// row's network, and returns its address.
func (r *run) handlerAlone() string {
	ln := r.listen(r.spec.Name + "-handler:80")
	mux := http.NewServeMux()
	mux.Handle("/beacon", r.tier.Beacon)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	r.t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// shed sends head through the front and to ref, the handler alone, and
// requires the same bytes from both: the tier's 503 for reason, with
// its Retry-After and body, counted on both servers.
func (r *run) shed(ref, head, reason string) error {
	var got, want string
	counted, err := r.moved(r.spec.Sheds(reason), func() (err error) {
		if got, err = r.exchange(r.addr, closing(head)); err == nil {
			want, err = r.exchange(ref, closing(head))
		}
		return err
	})
	switch {
	case err != nil:
		return fmt.Errorf("%s shed: %w", reason, err)
	case got != want:
		return fmt.Errorf("%s shed through the front\n%q\nfrom the handler alone\n%q", reason, got, want)
	case !strings.HasPrefix(got, "HTTP/1.1 503 Service Unavailable\r\n") || !strings.HasSuffix(got, r.spec.ShedBody(reason)) ||
		!strings.Contains(got, "\r\nRetry-After: "+r.spec.RetryAfter+"\r\n"):
		return fmt.Errorf("%s shed %q, want the tier's 503 with Retry-After %s and body %q", reason, got, r.spec.RetryAfter, r.spec.ShedBody(reason))
	case counted != 2:
		return fmt.Errorf("%s sheds moved by %v over the two servers, want 2", reason, counted)
	}
	return nil
}

var dateLine = regexp.MustCompile(`\r\nDate: [^\r]*`)

// exchange writes raw to addr and returns everything the server sends
// before it closes the connection, the Date line blanked.
func (r *run) exchange(addr, raw string) (string, error) {
	nc, err := r.dial(r.ctx(), "tcp", addr)
	if err != nil {
		return "", err
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, raw); err != nil {
		return "", err
	}
	_ = nc.SetReadDeadline(time.Now().Add(r.patience))
	got, err := io.ReadAll(nc)
	if err != nil {
		return "", fmt.Errorf("reading the answer to %.40q: %v (so far %q)", raw, err, got)
	}
	return dateLine.ReplaceAllString(string(got), "\r\nDate: -"), nil
}

// rawSession sends head, the payload as a masked text frame and a close
// frame in one write, and waits for the 101 and the server's close.
func (r *run) rawSession(head string, p beacon.Payload) error {
	nc, err := r.dial(r.ctx(), "tcp", r.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	wire, err := session(head, p.Encode())
	if err != nil {
		return err
	}
	if _, err := nc.Write(wire); err != nil {
		return err
	}
	_ = nc.SetReadDeadline(time.Now().Add(r.patience))
	br := bufio.NewReader(nc)
	if err := skipHead(br); err != nil {
		return err
	}
	if f, err := wsproto.ReadFrame(br, 1<<10); err != nil || f.Opcode != wsproto.OpClose {
		return fmt.Errorf("after the session: frame %+v, %v; want the close echo", f, err)
	}
	return nil
}

// skipHead reads a 101 answer's head.
func skipHead(br *bufio.Reader) error {
	status, err := br.ReadString('\n')
	if err != nil || status != "HTTP/1.1 101 Switching Protocols\r\n" {
		return fmt.Errorf("status line %q, %v; want a 101", status, err)
	}
	for line := status; line != "\r\n"; {
		if line, err = br.ReadString('\n'); err != nil {
			return err
		}
	}
	return nil
}

// get fetches path from the tier.
func (r *run) get(client *http.Client, path string) (int, string, http.Header, error) {
	resp, err := client.Get("http://" + r.addr + path)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header, err
}
