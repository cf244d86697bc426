package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
)

// syncBuffer is a stderr the test can read while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunBadFlagsFailWithUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{}, // -shards is required
		{"-shards", "ws://127.0.0.1:1/trunk", "-log-level", "loud"},
		{"-shards", "ws://127.0.0.1:1/trunk", "-shard-api", "http://a,http://b"}, // 2 bases, 1 shard
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), args, &stderr)
		if err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of adrouter") {
			t.Errorf("run(%q) printed no usage:\n%s", args, stderr.String())
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard); err != nil {
		t.Errorf("run(-h) = %v, want nil: asking for help is not a failure", err)
	}
}

// TestRunServesAndDrains is the command end to end against an
// in-process collector: a beacon session is accepted and stored, and
// cancelling the context drains to pending=0 and returns nil.
func TestRunServesAndDrains(t *testing.T) {
	st := store.New()
	c, err := collector.New(collector.Config{
		Store:      st,
		Anonymizer: ipmeta.NewAnonymizer([]byte("cmd-test")),
		TrunkToken: "tok",
	})
	if err != nil {
		t.Fatal(err)
	}
	csrv, err := collector.NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	go csrv.Serve(cctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listen := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", listen,
			"-shards", fmt.Sprintf("ws://%s/trunk", csrv.Addr()),
			"-trunk-token", "tok",
			"-drain-grace", "5s",
		}, stderr)
	}()

	client := &beacon.Client{
		CollectorURL: "ws://" + listen + "/beacon",
		MaxAttempts:  50, RetryBackoff: 20 * time.Millisecond, // until the listener is up
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	if err := client.Report(rctx, beacon.Payload{
		CampaignID: "cmd", CreativeID: "cr", PageURL: "http://pub.es/p",
		UserAgent: "UA", Nonce: beacon.NewNonce(),
	}, 10*time.Millisecond); err != nil {
		t.Fatalf("beacon session through the command: %v\n%s", err, stderr.String())
	}

	// The beacon client is fire-and-forget: Report returns once its close
	// frame is written, which can be before the command has read a byte
	// of the session. Wait for the impression so that what the cancel
	// interrupts is an idle command, not a half-read socket.
	deadline := time.Now().Add(10 * time.Second)
	for st.Len() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not return after cancel\n%s", stderr.String())
	}
	if st.Len() != 1 {
		t.Errorf("collector stored %d impressions, want 1\n%s", st.Len(), stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "router stopped") || !strings.Contains(out, "spill_pending=0") {
		t.Errorf("no clean-drain line in the log:\n%s", out)
	}
}
