package wsproto

import (
	"io"
	"sync"
)

// scratch is the pooled working memory behind every transport write:
// the buffer a frame or handshake message is assembled in before its
// single Write, and the target for crypto/rand reads (mask keys, the
// handshake key), whose argument escapes and would otherwise cost a
// heap allocation per frame. It is held only for the duration of one
// write, never by a connection.
type scratch struct {
	rnd [16]byte
	buf []byte
}

// maxPooledScratch bounds the buffer a scratch may carry back into the
// pool; one oversized frame must not pin its buffer for the process's
// lifetime.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) release() {
	if cap(s.buf) > maxPooledScratch {
		s.buf = nil
	}
	scratchPool.Put(s)
}

// writeFrame encodes f into the scratch buffer and issues exactly one
// Write for it.
func (s *scratch) writeFrame(w io.Writer, f Frame) error {
	b, err := AppendFrame(s.buf[:0], f)
	if err != nil {
		return err
	}
	s.buf = b
	if _, err := w.Write(b); err != nil {
		return &transportError{op: "writing frame", err: err}
	}
	return nil
}

// transportError attributes a transport failure to the operation that
// hit it. The message is built only when someone reads it: most of
// these are close races whose callers discard the error, and formatting
// a *net.OpError costs a dozen allocations.
type transportError struct {
	op  string
	err error
}

func (e *transportError) Error() string { return "wsproto: " + e.op + ": " + e.err.Error() }

func (e *transportError) Unwrap() error { return e.err }
