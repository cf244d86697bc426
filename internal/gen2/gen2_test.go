package gen2

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRotationPromotion pins the two behaviours every caller relies
// on: the current generation rotates exactly at the limit (so memory is
// bounded at 2×limit and the oldest generation is dropped whole), and a
// previous-generation hit is promoted so hot keys survive the next
// rotation.
func TestRotationPromotion(t *testing.T) {
	const limit = 4
	m := New[string, int](limit)
	if _, ok := m.Get("absent"); ok {
		t.Fatal("empty map reported a hit")
	}
	for i := 0; i < limit; i++ {
		m.Put(fmt.Sprintf("a%d", i), i)
	}
	if len(m.cur) != limit || len(m.prev) != 0 {
		t.Fatalf("at the limit: cur=%d prev=%d, want %d/0", len(m.cur), len(m.prev), limit)
	}
	m.Put("b0", 10) // limit+1st distinct key rotates
	if len(m.cur) != 1 || len(m.prev) != limit {
		t.Fatalf("after rotation: cur=%d prev=%d, want 1/%d", len(m.cur), len(m.prev), limit)
	}

	// A previous-generation hit is promoted into the current one.
	if v, ok := m.Get("a1"); !ok || v != 1 {
		t.Fatalf("Get(a1) = %d %v, want 1 true", v, ok)
	}
	if _, ok := m.cur["a1"]; !ok {
		t.Fatal("previous-generation hit was not promoted")
	}

	// The next rotation drops the old previous generation whole: a0 and
	// a3 were never touched again and would be forgotten, but a3 is
	// re-put first and survives because it moved generations.
	m.Put("a3", 3)               // re-put: now current
	for i := 0; i < limit; i++ { // the last of these rotates again
		m.Put(fmt.Sprintf("c%d", i), i)
	}
	if _, ok := m.Get("a0"); ok {
		t.Fatal("a0 outlived two generations")
	}
	if v, ok := m.Get("a3"); !ok || v != 3 {
		t.Fatalf("Get(a3) = %d %v, want 3 true (it was in the current generation at rotation)", v, ok)
	}
	if n := len(m.cur) + len(m.prev); n > 2*limit {
		t.Fatalf("%d entries held, bound is %d", n, 2*limit)
	}
}

// TestIntern returns one canonical string per distinct content and
// keeps returning it across a rotation.
func TestIntern(t *testing.T) {
	m := New[string, string](2)
	if got := Intern(m, nil); got != "" {
		t.Fatalf("Intern(nil) = %q", got)
	}
	first := Intern(m, []byte("chrome"))
	Intern(m, []byte("x"))
	Intern(m, []byte("y")) // rotates: "chrome" is now previous-generation
	again := Intern(m, []byte("chrome"))
	if again != "chrome" || first != again {
		t.Fatalf("Intern = %q then %q", first, again)
	}
	if _, ok := m.cur["chrome"]; !ok {
		t.Fatal("previous-generation intern hit was not promoted")
	}
}

// TestFirstGenerationUnsized: a map that has seen one key holds about
// one key's worth of memory, not room for a quarter of its limit (8,192
// entries at the collector's limit, 1<<15).
func TestFirstGenerationUnsized(t *testing.T) {
	m := New[string, string](1 << 15)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Put("key", "value")
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("one Put allocated %d B, want under 4 KiB", got)
	}
	if v, ok := m.Get("key"); !ok || v != "value" {
		t.Fatalf("Get(key) = %q %v, want value true", v, ok)
	}
}
