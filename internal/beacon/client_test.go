package beacon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaudit/internal/memnet"
	"adaudit/internal/wsproto"
)

// collectStub accepts beacon connections and records what arrives.
type collectStub struct {
	srv      *httptest.Server
	payloads chan Payload
	events   chan Event
}

func newCollectStub(t *testing.T) *collectStub {
	t.Helper()
	cs := &collectStub{payloads: make(chan Payload, 16), events: make(chan Event, 16)}
	cs.srv = httptest.NewServer(cs)
	t.Cleanup(cs.srv.Close)
	return cs
}

func (cs *collectStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn, err := (&wsproto.Upgrader{MaxMessageSize: 1 << 16}).Upgrade(w, r)
	if err != nil {
		return
	}
	defer conn.Close(wsproto.CloseNormal, "")
	for {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		if e, isEvent, err := DecodeEventUpdate(string(msg)); isEvent {
			if err == nil {
				cs.events <- e
			}
			continue
		}
		if p, err := Decode(string(msg)); err == nil {
			cs.payloads <- p
		}
	}
}

// serveMem serves h on an in-memory network and returns the URL a
// client dials it at and the dial that reaches it.
func serveMem(t *testing.T, h http.Handler) (string, func(context.Context, string, string) (net.Conn, error)) {
	t.Helper()
	nw := &memnet.Network{Buffer: 64 << 10}
	ln, err := nw.Listen("collector:80")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "ws://collector:80/beacon", nw.Dial
}

func (cs *collectStub) wsURL() string {
	return "ws" + strings.TrimPrefix(cs.srv.URL, "http")
}

func TestClientOpenDeliversPayload(t *testing.T) {
	cs := newCollectStub(t)
	c := &Client{CollectorURL: cs.wsURL()}
	p := samplePayload()
	p.Events = nil
	sess, err := c.Open(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	select {
	case got := <-cs.payloads:
		if got.CampaignID != p.CampaignID || got.PageURL != p.PageURL {
			t.Fatalf("collector saw %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("payload never reached collector")
	}
}

func TestClientSendEvent(t *testing.T) {
	cs := newCollectStub(t)
	c := &Client{CollectorURL: cs.wsURL()}
	p := samplePayload()
	p.Events = nil
	sess, err := c.Open(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	<-cs.payloads

	want := Event{Kind: EventClick, At: 1500 * time.Millisecond}
	if err := sess.SendEvent(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-cs.events:
		if got != want {
			t.Fatalf("event = %+v, want %+v", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event never reached collector")
	}
}

func TestClientRejectsInvalidPayload(t *testing.T) {
	c := &Client{CollectorURL: "ws://127.0.0.1:1"}
	if _, err := c.Open(context.Background(), Payload{}); err == nil {
		t.Fatal("invalid payload accepted")
	}
}

func TestClientDialFailure(t *testing.T) {
	c := &Client{CollectorURL: "ws://127.0.0.1:1"}
	if _, err := c.Open(context.Background(), samplePayload()); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClientReportFullFlow(t *testing.T) {
	cs := newCollectStub(t)
	c := &Client{CollectorURL: cs.wsURL()}
	p := samplePayload()
	p.Events = []Event{
		{Kind: EventMouseMove, At: 10 * time.Millisecond},
		{Kind: EventClick, At: 20 * time.Millisecond},
	}
	if err := c.Report(context.Background(), p, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-cs.payloads:
		if len(got.Events) != 0 {
			t.Fatalf("initial payload carried %d events, want 0 (streamed separately)", len(got.Events))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("payload never arrived")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-cs.events:
		case <-time.After(2 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
}

func TestClientReportRespectsContext(t *testing.T) {
	cs := newCollectStub(t)
	c := &Client{CollectorURL: cs.wsURL()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Report(ctx, samplePayload(), 10*time.Second)
	if err == nil {
		t.Fatal("Report outlived its context")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not honoured promptly")
	}
}

func TestScriptGeneration(t *testing.T) {
	js, err := Script(ScriptConfig{
		CollectorURL: "wss://collector.example/beacon",
		CampaignID:   "Research-010",
		CreativeID:   "c1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"new WebSocket",
		`"wss://collector.example/beacon"`,
		"Research-010",
		"document.referrer",
		"mousemove",
		"click",
		"beforeunload",
		"navigator.userAgent",
	} {
		if !strings.Contains(js, want) {
			t.Errorf("script missing %q", want)
		}
	}
}

func TestScriptEscapesIDs(t *testing.T) {
	js, err := Script(ScriptConfig{
		CollectorURL: "ws://c.example/",
		CampaignID:   `x"; alert(1); var y="`,
		CreativeID:   "c1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(js, `x"; alert(1)`) {
		t.Fatal("campaign id not escaped in script")
	}
}

func TestScriptValidation(t *testing.T) {
	if _, err := Script(ScriptConfig{CollectorURL: "http://x", CampaignID: "a", CreativeID: "b"}); err == nil {
		t.Fatal("http collector URL accepted")
	}
	if _, err := Script(ScriptConfig{CollectorURL: "ws://x"}); err == nil {
		t.Fatal("missing ids accepted")
	}
}

// TestClientFollowsCollectorURL: the parsed collector URL is a cache of
// the field, not a copy — retargeting the client takes effect on the
// next dial, an unparseable URL is reported, and concurrent sessions
// share the cache safely (run under -race).
func TestClientFollowsCollectorURL(t *testing.T) {
	a, b := newCollectStub(t), newCollectStub(t)
	c := &Client{CollectorURL: a.wsURL()}
	p := samplePayload()
	p.Events = nil
	report := func(want *collectStub, n int) {
		t.Helper()
		done := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() { done <- c.Report(context.Background(), p, 0) }()
		}
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			select {
			case <-want.payloads:
			case <-time.After(2 * time.Second):
				t.Fatal("payload never reached the collector the client points at")
			}
		}
	}
	report(a, 4)
	c.CollectorURL = b.wsURL()
	report(b, 4)

	c.CollectorURL = "ws://bad host/"
	if _, err := c.Open(context.Background(), p); err == nil || !strings.Contains(err.Error(), "parsing collector url") {
		t.Fatalf("unparseable collector URL: err = %v", err)
	}
}
