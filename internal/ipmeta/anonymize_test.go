package ipmeta

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAnonymizerConsistentWithinDataset(t *testing.T) {
	a := NewAnonymizer([]byte("dataset-secret"))
	addr := netip.MustParseAddr("203.0.113.7")
	if a.Pseudonym(addr) != a.Pseudonym(addr) {
		t.Fatal("same address produced different pseudonyms")
	}
}

func TestAnonymizerKeysIndependent(t *testing.T) {
	a := NewAnonymizer([]byte("key-a"))
	b := NewAnonymizer([]byte("key-b"))
	addr := netip.MustParseAddr("203.0.113.7")
	if a.Pseudonym(addr) == b.Pseudonym(addr) {
		t.Fatal("different keys produced the same pseudonym")
	}
}

func TestAnonymizerInjectiveInPractice(t *testing.T) {
	a := NewAnonymizer([]byte("k"))
	err := quick.Check(func(x, y uint32) bool {
		ax := netip.AddrFrom4([4]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
		ay := netip.AddrFrom4([4]byte{byte(y >> 24), byte(y >> 16), byte(y >> 8), byte(y)})
		if ax == ay {
			return a.Pseudonym(ax) == a.Pseudonym(ay)
		}
		return a.Pseudonym(ax) != a.Pseudonym(ay)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnonymizerOutputFormat(t *testing.T) {
	a := NewAnonymizer([]byte("k"))
	p := a.Pseudonym(netip.MustParseAddr("10.0.0.1"))
	if len(p) != 32 {
		t.Fatalf("pseudonym length = %d, want 32 hex chars", len(p))
	}
	for _, c := range p {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("pseudonym %q contains non-hex char %q", p, c)
		}
	}
}

func TestAnonymizerPanicsOnEmptySecret(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty secret")
		}
	}()
	NewAnonymizer(nil)
}

func TestAnonymizerDefensiveKeyCopy(t *testing.T) {
	secret := []byte("mutable")
	a := NewAnonymizer(secret)
	addr := netip.MustParseAddr("10.0.0.1")
	before := a.Pseudonym(addr)
	secret[0] = 'X'
	if a.Pseudonym(addr) != before {
		t.Fatal("anonymizer affected by caller mutating the secret slice")
	}
}

// TestPseudonymMatchesReferenceExpression: the pooled-scratch
// implementation returns, for every kind of address, what the plain
// expression it replaced returns — HMAC-SHA-256 over MarshalBinary,
// first 16 bytes, hex — and allocates only that string.
func TestPseudonymMatchesReferenceExpression(t *testing.T) {
	key := []byte("dataset-secret")
	a := NewAnonymizer(key)
	addrs := []netip.Addr{
		netip.MustParseAddr("203.0.113.7"),
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("::ffff:203.0.113.7"), // v4-in-6: 16 bytes, not 4
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("fe80::1%eth1"),
		{}, // invalid: hashes no bytes
	}
	seen := map[string]netip.Addr{}
	for round := 0; round < 2; round++ { // second round runs on pooled scratch
		for _, addr := range addrs {
			mac := hmac.New(sha256.New, key)
			b, _ := addr.MarshalBinary()
			mac.Write(b)
			want := hex.EncodeToString(mac.Sum(nil)[:16])
			if got := a.Pseudonym(addr); got != want {
				t.Fatalf("Pseudonym(%v) = %s, reference expression gives %s", addr, got, want)
			}
			if prev, dup := seen[want]; dup && prev != addr {
				t.Fatalf("%v and %v share pseudonym %s", prev, addr, want)
			}
			seen[want] = addr
		}
	}
	if raceEnabled {
		return
	}
	addr := addrs[0]
	if n := testing.AllocsPerRun(200, func() { a.Pseudonym(addr) }); n > 1 {
		t.Fatalf("Pseudonym allocates %v times per call, want 1 (the string)", n)
	}
}
