package ipmeta

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net/netip"
	"sync"
)

// Anonymizer irreversibly pseudonymises IP addresses, implementing the
// paper's footnote 1: metadata (ISP, country, data-center status) is
// extracted first, then the raw address is replaced by a keyed hash so
// analyses can still group by user (IP+User-Agent) without retaining
// personal data.
//
// The hash is HMAC-SHA-256 under a per-dataset secret, so equal addresses
// map to equal pseudonyms within a dataset but pseudonyms cannot be
// correlated across datasets or reversed by dictionary attack over the
// 2^32 IPv4 space without the key.
type Anonymizer struct {
	key []byte
	// pool recycles pseudonymScratch values across Pseudonym calls.
	pool sync.Pool
}

// pseudonymScratch is what one Pseudonym call works in. The keyed HMAC
// state is the expensive part: hmac.New hashes the key into fresh
// inner/outer digests every time, while Reset restores exactly that
// keyed state for free. The buffers ride along because anything handed
// to a hash.Hash escapes — on the stack they would each be a heap
// allocation per call; here the returned string is the only one.
type pseudonymScratch struct {
	mac  hash.Hash
	addr [16]byte
	sum  [sha256.Size]byte
	hex  [32]byte
}

// NewAnonymizer returns an anonymizer keyed with the given secret. The
// secret must be non-empty; it should be generated per dataset and
// discarded after ingestion.
func NewAnonymizer(secret []byte) *Anonymizer {
	if len(secret) == 0 {
		panic("ipmeta: anonymizer requires a non-empty secret")
	}
	key := make([]byte, len(secret))
	copy(key, secret)
	return &Anonymizer{key: key}
}

// Pseudonym returns the hex-encoded pseudonym for addr. Invalid addresses
// map to the pseudonym of the zero address.
func (a *Anonymizer) Pseudonym(addr netip.Addr) string {
	sc, _ := a.pool.Get().(*pseudonymScratch)
	if sc == nil {
		sc = &pseudonymScratch{mac: hmac.New(sha256.New, a.key)}
	}
	// The bytes hashed are addr.MarshalBinary()'s: 4, 16, 16 + zone, or
	// none for the invalid address.
	switch {
	case addr.Is4():
		a4 := addr.As4()
		n := copy(sc.addr[:], a4[:])
		sc.mac.Write(sc.addr[:n])
	case addr.Zone() != "":
		b, _ := addr.MarshalBinary()
		sc.mac.Write(b)
	case addr.Is6():
		sc.addr = addr.As16()
		sc.mac.Write(sc.addr[:])
	}
	hex.Encode(sc.hex[:], sc.mac.Sum(sc.sum[:0])[:16])
	out := string(sc.hex[:])
	sc.mac.Reset()
	a.pool.Put(sc)
	return out
}
