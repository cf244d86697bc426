package trunk_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/trunk"
	"adaudit/internal/trunk/trunktest"
	"adaudit/internal/wsproto"
)

// serve runs r behind a test HTTP server, handing every frame to handle,
// and returns the server's /trunk URL and where the ID of a trunk that
// Serve ended with an error goes.
func serve(t *testing.T, r *trunk.Receiver, handle func(*trunk.Peer, trunk.Frame, []byte) []byte) (string, <-chan string) {
	t.Helper()
	ended := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		conn, err := (&wsproto.Upgrader{MaxMessageSize: trunk.MaxMessage}).Upgrade(w, req)
		if err != nil {
			return
		}
		if p, err := r.Serve(conn, handle); err != nil {
			ended <- p.ID
		}
	}))
	t.Cleanup(srv.Close)
	return "ws" + strings.TrimPrefix(srv.URL, "http") + "/trunk", ended
}

func dial(t *testing.T, url string) *wsproto.Conn {
	t.Helper()
	conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.NetConn().Close() })
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// TestReceiverRefuses: every input that breaks the protocol is refused
// with a 1008 close giving its reason, the Refused hook hears that
// reason first, Serve returns no error, and the handler is never called
// — not even for the frames of a refused batch that would have been
// fine alone.
func TestReceiverRefuses(t *testing.T) {
	for _, tc := range trunktest.Refusals {
		t.Run(tc.Name, func(t *testing.T) {
			var mu sync.Mutex
			var handled int
			var refused []string
			r := &trunk.Receiver{
				HandshakeTimeout: 5 * time.Second,
				Refused: func(_ *trunk.Peer, reason string, _ error) {
					mu.Lock()
					refused = append(refused, reason)
					mu.Unlock()
				},
			}
			url, ended := serve(t, r, func(_ *trunk.Peer, _ trunk.Frame, reply []byte) []byte {
				mu.Lock()
				handled++
				mu.Unlock()
				return reply
			})
			conn := dial(t, url)
			if err := conn.WriteMessage(tc.Op, tc.Msg); err != nil {
				t.Fatal(err)
			}
			_, _, err := conn.ReadMessage()
			var ce *wsproto.CloseError
			if !errors.As(err, &ce) {
				t.Fatalf("trunk ended with %v, want a close frame", err)
			}
			if ce.Code != wsproto.ClosePolicyViolation || ce.Reason != tc.Reason {
				t.Fatalf("close = %d %q, want %d %q", ce.Code, ce.Reason, wsproto.ClosePolicyViolation, tc.Reason)
			}
			mu.Lock()
			defer mu.Unlock()
			if handled != 0 {
				t.Fatalf("handler called %d times for a refused trunk", handled)
			}
			if len(refused) != 1 || refused[0] != tc.Reason {
				t.Fatalf("Refused heard %q, want exactly %q", refused, tc.Reason)
			}
			select {
			case id := <-ended:
				t.Fatalf("Serve returned an error for refused peer %q", id)
			default:
			}
		})
	}
}

// TestReceiverServesBatches: after the Hello, every frame reaches the
// handler in order with the peer's ID, later batches need no Hello, each
// read gets one reply batch, and Serve returns what ended the trunk.
func TestReceiverServesBatches(t *testing.T) {
	r := &trunk.Receiver{HandshakeTimeout: 5 * time.Second}
	var seen []trunk.Type
	url, ended := serve(t, r, func(p *trunk.Peer, f trunk.Frame, reply []byte) []byte {
		if p.ID != "gw-1" {
			t.Errorf("peer ID = %q, want the Hello's", p.ID)
		}
		seen = append(seen, f.Type)
		if f.Type != trunk.Commit {
			return reply
		}
		return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Ack, Stream: f.Stream})
	})
	conn := dial(t, url)
	commit := func(stream uint64) trunk.Frame {
		return trunk.Frame{Type: trunk.Commit, Stream: stream, RemoteIP: "203.0.113.9"}
	}
	batches := [][]byte{
		trunk.AppendFrame(trunk.AppendFrame(trunk.AppendFrame(nil,
			trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw-1"}), commit(1)), commit(2)),
		trunk.AppendFrame(nil, commit(3)),
	}
	wantAcks := [][]uint64{{1, 2}, {3}}
	for i, b := range batches {
		if err := conn.WriteMessage(wsproto.OpBinary, b); err != nil {
			t.Fatal(err)
		}
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		frames, err := trunk.DecodeBatch(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != len(wantAcks[i]) {
			t.Fatalf("batch %d answered with %d frames, want one reply batch of %d acks", i, len(frames), len(wantAcks[i]))
		}
		for j, f := range frames {
			if f.Type != trunk.Ack || f.Stream != wantAcks[i][j] {
				t.Fatalf("batch %d reply %d = %v %d, want ack %d", i, j, f.Type, f.Stream, wantAcks[i][j])
			}
		}
	}
	if err := conn.Close(wsproto.CloseNormal, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-ended:
		if id != "gw-1" {
			t.Fatalf("Serve ended peer %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned the trunk's end")
	}
	want := []trunk.Type{trunk.Hello, trunk.Commit, trunk.Commit, trunk.Commit}
	if len(seen) != len(want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("handler saw %v, want %v", seen, want)
		}
	}
}

func TestAuthorized(t *testing.T) {
	for _, tc := range []struct {
		token, sent  string
		header, want bool
	}{
		{token: "s3cret", sent: "s3cret", header: true, want: true},
		{token: "s3cret", want: false}, // no header
		{token: "s3cret", sent: "", header: true, want: false},
		{token: "s3cret", sent: "s3cre", header: true, want: false},
		{token: "s3cret", sent: "s3cret!", header: true, want: false},
		{token: "s3cret", sent: "S3CRET", header: true, want: false},
		{token: "", want: true}, // an empty token admits everyone
		{token: "", sent: "anything", header: true, want: true},
	} {
		r := httptest.NewRequest(http.MethodGet, "/trunk", nil)
		if tc.header {
			r.Header.Set(trunk.TokenHeader, tc.sent)
		}
		if got := trunk.Authorized(r, tc.token); got != tc.want {
			t.Errorf("Authorized(header %v %q, token %q) = %v, want %v", tc.header, tc.sent, tc.token, got, tc.want)
		}
	}
}
