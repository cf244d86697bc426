package wsproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestAppendFrameMatchesReference: over every length class, masked or
// not, with and without RSV1 and FIN, AppendFrame yields the reference
// encoder's bytes, appends rather than overwrites, and leaves the
// payload alone.
func TestAppendFrameMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 125, 126, 127, 65535, 65536, 70001} {
		for _, masked := range []bool{false, true} {
			for _, rsv1 := range []bool{false, true} {
				for _, fin := range []bool{false, true} {
					payload := make([]byte, n)
					for i := range payload {
						payload[i] = byte(i*7 + 3)
					}
					keep := bytes.Clone(payload)
					f := Frame{Fin: fin, Rsv1: rsv1, Opcode: OpBinary, Masked: masked, Payload: payload}
					if masked {
						f.MaskKey = [4]byte{0xDE, 0xAD, 0xBE, 0xEF}
					}
					var want bytes.Buffer
					if err := referenceWriteFrame(&want, f); err != nil {
						t.Fatal(err)
					}
					got, err := AppendFrame([]byte("prefix"), f)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
						t.Fatalf("len %d masked %v rsv1 %v fin %v: AppendFrame differs from the reference encoder", n, masked, rsv1, fin)
					}
					if !bytes.Equal(payload, keep) {
						t.Fatalf("len %d masked %v: AppendFrame modified the caller's payload", n, masked)
					}
					var wrote bytes.Buffer
					if err := WriteFrame(&wrote, f); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wrote.Bytes(), want.Bytes()) {
						t.Fatalf("len %d masked %v: WriteFrame differs from the reference encoder", n, masked)
					}
				}
			}
		}
	}
	// Control frames: same bytes, same refusals.
	for _, f := range []Frame{
		{Fin: true, Opcode: OpPing, Payload: []byte("hb")},
		{Fin: true, Opcode: OpPong, Masked: true, MaskKey: [4]byte{9, 8, 7, 6}, Payload: make([]byte, 125)},
		{Fin: true, Opcode: OpClose, Payload: EncodeClosePayload(CloseGoingAway, "bye")},
		{Fin: false, Opcode: OpPing},
		{Fin: true, Opcode: OpClose, Payload: make([]byte, 126)},
	} {
		var want bytes.Buffer
		wantErr := referenceWriteFrame(&want, f)
		got, err := AppendFrame(nil, f)
		if !errors.Is(err, wantErr) || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%v frame: AppendFrame = (%x, %v), reference (%x, %v)", f.Opcode, got, err, want.Bytes(), wantErr)
		}
	}
}

// sinkConn is a net.Conn that swallows writes, keeping each one on
// request, and serves reads from a fixed script on a loop.
type sinkConn struct {
	net.Conn // nil: only the methods below are reached
	keep     bool
	writes   [][]byte
	script   []byte
	pos      int
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.keep {
		c.writes = append(c.writes, bytes.Clone(p))
	}
	return len(p), nil
}

func (c *sinkConn) Read(p []byte) (int, error) {
	if len(c.script) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.script[c.pos:])
	c.pos = (c.pos + n) % len(c.script)
	return n, nil
}

func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestOneWritePerFrame: every frame a Conn sends — data, ping, pong,
// close, each fragment of a fragmented message — reaches the transport
// in exactly one Write holding exactly one well-formed frame.
func TestOneWritePerFrame(t *testing.T) {
	for _, role := range []Role{RoleServer, RoleClient} {
		nc := &sinkConn{keep: true}
		c := newConn(nc, bufio.NewReader(nc), role, 0)
		big := bytes.Repeat([]byte("x"), 70000)
		steps := []struct {
			name   string
			send   func() error
			frames int
		}{
			{"text", func() error { return c.WriteText("impression") }, 1},
			{"binary 70000", func() error { return c.WriteMessage(OpBinary, big) }, 1},
			{"ping", func() error { return c.Ping([]byte("hb")) }, 1},
			{"pong", func() error { return c.writeFrame(Frame{Fin: true, Opcode: OpPong}) }, 1},
			{"fragmented 10/4", func() error { return c.WriteFragmented(OpText, []byte("0123456789"), 4) }, 3},
			{"close", func() error { return c.Close(CloseNormal, "unload") }, 1},
		}
		for _, st := range steps {
			before := len(nc.writes)
			if err := st.send(); err != nil {
				t.Fatalf("role %d %s: %v", role, st.name, err)
			}
			got := nc.writes[before:]
			if len(got) != st.frames {
				t.Fatalf("role %d %s: %d transport writes, want %d", role, st.name, len(got), st.frames)
			}
			for i, w := range got {
				r := bytes.NewReader(w)
				f, err := ReadFrame(r, 0)
				if err != nil || r.Len() != 0 {
					t.Fatalf("role %d %s: write %d is not exactly one frame (err %v, %d bytes left)", role, st.name, i, err, r.Len())
				}
				if f.Masked != (role == RoleClient) {
					t.Fatalf("role %d %s: masked = %v", role, st.name, f.Masked)
				}
			}
		}
	}
}

// TestConnSteadyStateAllocations pins what the pooled scratch buys: a
// warm Conn sends and receives frames without allocating.
func TestConnSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	payload := []byte("cid=demo&crid=banner-1&ua=Mozilla%2F5.0&url=http%3A%2F%2Fpub.example%2Fp&v=1")
	for _, role := range []Role{RoleServer, RoleClient} {
		nc := &sinkConn{}
		c := newConn(nc, bufio.NewReader(nc), role, 0)
		if n := testing.AllocsPerRun(200, func() {
			if err := c.WriteMessage(OpText, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("role %d: WriteMessage allocates %.0f times per frame, want 0", role, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := c.Ping(nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("role %d: Ping allocates %.0f times per frame, want 0", role, n)
		}
	}

	// Reading: a server consuming masked text frames, a client
	// consuming unmasked ones, both with the recycled read buffer.
	for _, role := range []Role{RoleServer, RoleClient} {
		wire, err := AppendFrame(nil, Frame{Fin: true, Opcode: OpText, Masked: role == RoleServer, MaskKey: [4]byte{1, 2, 3, 4}, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		nc := &sinkConn{script: wire}
		c := newConn(nc, bufio.NewReader(nc), role, 1<<16)
		c.ReuseReadBuffer()
		if n := testing.AllocsPerRun(200, func() {
			if _, msg, err := c.ReadMessage(); err != nil || !bytes.Equal(msg, payload) {
				t.Fatalf("ReadMessage = (%q, %v)", msg, err)
			}
		}); n != 0 {
			t.Errorf("role %d: ReadMessage with ReuseReadBuffer allocates %.0f times per message, want 0", role, n)
		}
	}
}

// failConn fails every write with err.
type failConn struct {
	sinkConn
	err error
}

func (c *failConn) Write([]byte) (int, error) { return 0, c.err }

// TestTransportErrorsUnwrap: the lazily formatted wrapper keeps the
// cause reachable — callers tell a close race from a failure with
// errors.Is(err, net.ErrClosed) — and still reads as it always did.
func TestTransportErrorsUnwrap(t *testing.T) {
	cause := &net.OpError{Op: "write", Net: "tcp", Err: net.ErrClosed}
	err := WriteFrame(&failConn{err: cause}, Frame{Fin: true, Opcode: OpText, Payload: []byte("x")})
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WriteFrame error %v does not unwrap to net.ErrClosed", err)
	}
	var op *net.OpError
	if !errors.As(err, &op) || op != cause {
		t.Fatalf("WriteFrame error %v does not unwrap to its *net.OpError", err)
	}
	if want := "wsproto: writing frame: " + cause.Error(); err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}

	nc := &failConn{err: cause}
	c := newConn(nc, bufio.NewReader(nc), RoleClient, 0)
	if err := c.Close(CloseNormal, "unload"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Close error %v does not unwrap to net.ErrClosed", err)
	}

	_, err = ReadFrame(bytes.NewReader([]byte{0x81, 0x7E, 0x01}), 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) || err.Error() != "wsproto: reading extended length: unexpected EOF" {
		t.Fatalf("short extended length: %v", err)
	}
}

// closedConn reads as a transport the local side has already closed.
type closedConn struct{ sinkConn }

func (c *closedConn) Read([]byte) (int, error) {
	return 0, &net.OpError{Op: "read", Net: "tcp", Err: net.ErrClosed}
}

// noisyError counts how often its text is asked for.
type noisyError struct{ asked int }

func (e *noisyError) Error() string { e.asked++; return "noisy" }

// TestReadMessageBuildsNoReasonItCannotSend: a reader woken by the
// local Close — every beacon session's control-frame reader — neither
// formats the error nor writes a second close frame; a codec error on a
// live connection still gets its 1002 or 1009 with the reason.
func TestReadMessageBuildsNoReasonItCannotSend(t *testing.T) {
	// Read fails with net.ErrClosed: nothing goes out at all.
	nc := &closedConn{sinkConn{keep: true}}
	c := newConn(nc, bufio.NewReader(nc), RoleClient, 0)
	if _, _, err := c.ReadMessage(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ReadMessage error %v, want net.ErrClosed", err)
	}
	if len(nc.writes) != 0 {
		t.Fatalf("a close frame was written to a closed transport: %x", nc.writes)
	}

	// This side already sent its close frame: the error is never read.
	sink := &sinkConn{keep: true}
	c = newConn(sink, bufio.NewReader(sink), RoleClient, 0)
	if err := c.Close(CloseNormal, "unload"); err != nil {
		t.Fatal(err)
	}
	cause := &noisyError{}
	if err := c.close(CloseProtocolError, "", cause); err != nil {
		t.Fatal(err)
	}
	if cause.asked != 0 || len(sink.writes) != 1 {
		t.Fatalf("after a local close: reason formatted %d times, %d frames written; want 0 and 1", cause.asked, len(sink.writes))
	}

	// Real codec errors keep their replies.
	for _, tc := range []struct {
		name string
		wire []byte
		max  int64
		code CloseCode
	}{
		{"unmasked client frame", []byte{0x81, 0x01, 'x'}, 0, CloseProtocolError},
		{"reserved bits", []byte{0xB1, 0x80, 0, 0, 0, 0}, 0, CloseProtocolError},
		{"oversized frame", []byte{0x81, 0xFE, 0x01, 0x00}, 64, CloseMessageTooBig},
	} {
		sink := &sinkConn{keep: true, script: tc.wire}
		c := newConn(sink, bufio.NewReader(sink), RoleServer, tc.max)
		_, _, err := c.ReadMessage()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if len(sink.writes) != 1 {
			t.Fatalf("%s: %d frames written, want the close reply", tc.name, len(sink.writes))
		}
		f, ferr := ReadFrame(bytes.NewReader(sink.writes[0]), 0)
		if ferr != nil || f.Opcode != OpClose {
			t.Fatalf("%s: reply is not a close frame: %v %v", tc.name, f.Opcode, ferr)
		}
		code, reason, _ := DecodeClosePayload(f.Payload)
		if code != tc.code || reason != err.Error() {
			t.Fatalf("%s: close reply (%d, %q), want (%d, %q)", tc.name, code, reason, tc.code, err.Error())
		}
	}
}
