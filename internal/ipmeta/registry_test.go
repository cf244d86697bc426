package ipmeta

import (
	"net/netip"
	"testing"
)

func testUniverse(t *testing.T) *Universe {
	t.Helper()
	u, err := NewUniverse(UniverseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// RandomAddr is DrawAddr on the universe's own stream. Not safe for
// concurrent use.
func (u *Universe) RandomAddr(country string, kind OrgKind) (netip.Addr, error) {
	return u.DrawAddr(u.rng, country, kind)
}

// RandomResidentialAddr is DrawResidentialAddr on the universe's own
// stream. Not safe for concurrent use.
func (u *Universe) RandomResidentialAddr(country string) (netip.Addr, error) {
	return u.DrawResidentialAddr(u.rng, country)
}

func TestUniverseCountries(t *testing.T) {
	u := testUniverse(t)
	got := u.Countries()
	want := []string{"ES", "RU", "US"}
	if len(got) != len(want) {
		t.Fatalf("Countries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Countries = %v, want %v", got, want)
		}
	}
}

func TestResidentialAddrsResolveToCountry(t *testing.T) {
	u := testUniverse(t)
	for _, country := range u.Countries() {
		for i := 0; i < 50; i++ {
			addr, err := u.RandomResidentialAddr(country)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := u.DB.Lookup(addr)
			if !ok {
				t.Fatalf("residential addr %v not in DB", addr)
			}
			if rec.Org.Country != country {
				t.Fatalf("addr %v resolved to country %s, want %s", addr, rec.Org.Country, country)
			}
			if rec.Org.Kind == KindHosting || rec.Org.Kind == KindVPN {
				t.Fatalf("residential addr %v classified as %v", addr, rec.Org.Kind)
			}
		}
	}
}

func TestHostingAddrsDetectable(t *testing.T) {
	u := testUniverse(t)
	labelled, mislabelled := 0, 0
	for i := 0; i < 300; i++ {
		addr, err := u.RandomHostingAddr()
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := u.DB.Lookup(addr)
		if !ok {
			t.Fatalf("hosting addr %v not in DB", addr)
		}
		switch rec.Org.Kind {
		case KindHosting:
			labelled++
		case KindISP:
			// Mislabelled in the registry (a MaxMind-style gap) — but
			// manual verification must still identify it.
			mislabelled++
			if !u.ManualVerify(rec) {
				t.Fatalf("mislabelled hosting addr %v not manually verifiable", addr)
			}
		default:
			t.Fatalf("hosting addr %v classified as %v", addr, rec.Org.Kind)
		}
	}
	if labelled == 0 {
		t.Fatal("no hosting addresses correctly labelled")
	}
	if mislabelled == 0 {
		t.Fatal("no mislabelled hosting addresses: registry gaps missing")
	}
}

func TestManualVerifyRejectsRealISPs(t *testing.T) {
	u := testUniverse(t)
	addr, err := u.RandomResidentialAddr("ES")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := u.DB.Lookup(addr)
	if !ok {
		t.Fatal("residential addr not in DB")
	}
	if u.ManualVerify(rec) {
		t.Fatalf("manual verification flagged real ISP %s", rec.Org.Name)
	}
}

func TestFullCascadeOverUniverse(t *testing.T) {
	u := testUniverse(t)
	c := &Classifier{DB: u.DB, DenyList: u.DenyList, ManualVerify: u.ManualVerify}
	caught := map[DataCenterVerdict]int{}
	for i := 0; i < 500; i++ {
		addr, err := u.RandomHostingAddr()
		if err != nil {
			t.Fatal(err)
		}
		v := c.Classify(addr)
		if v == VerdictNotDataCenter || v == VerdictVPNException {
			t.Fatalf("hosting addr %v escaped the full cascade (%v)", addr, v)
		}
		caught[v]++
	}
	if caught[VerdictProviderDB] == 0 {
		t.Fatal("stage 1 caught nothing")
	}
	if caught[VerdictDenyList]+caught[VerdictManual] == 0 {
		t.Fatal("stages 2-3 caught nothing: mislabelling model inert")
	}
}

func TestDenyListCoversOnlyHostingSpace(t *testing.T) {
	u := testUniverse(t)
	if u.DenyList.Len() == 0 {
		t.Fatal("deny list is empty")
	}
	// Residential space must never be deny-listed.
	for i := 0; i < 200; i++ {
		addr, err := u.RandomResidentialAddr("ES")
		if err != nil {
			t.Fatal(err)
		}
		if u.DenyList.Contains(addr) {
			t.Fatalf("residential addr %v on deny list", addr)
		}
	}
}

func TestUniverseDeterminism(t *testing.T) {
	u1, err := NewUniverse(UniverseConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUniverse(UniverseConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a1, err1 := u1.RandomResidentialAddr("US")
		a2, err2 := u2.RandomResidentialAddr("US")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("universes diverged at draw %d: %v vs %v", i, a1, a2)
		}
	}
}

func TestRandomAddrUnknownCountry(t *testing.T) {
	u := testUniverse(t)
	if _, err := u.RandomAddr("XX", KindISP); err == nil {
		t.Fatal("expected error for unknown country")
	}
}

func TestRandomAddrAvoidsNetworkAndBroadcast(t *testing.T) {
	u := testUniverse(t)
	for i := 0; i < 500; i++ {
		addr, err := u.RandomResidentialAddr("RU")
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := u.DB.Lookup(addr)
		netAddr := rec.Prefix.Masked().Addr()
		if addr == netAddr {
			t.Fatalf("drew network address %v", addr)
		}
	}
}

func TestBuilderPropagatesError(t *testing.T) {
	b := NewBuilder()
	b.Add(netip.Prefix{}, Org{Name: "x"})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for invalid range")
	}
}

func TestBuilderAcceptsIPv6Ranges(t *testing.T) {
	b := NewBuilder()
	b.Add(netip.MustParsePrefix("2001:db8::/32"), Org{Name: "v6-isp", Kind: KindISP, Country: "ES"})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Lookup(netip.MustParseAddr("2001:db8::42"))
	if !ok || rec.Org.Name != "v6-isp" {
		t.Fatalf("v6 lookup = (%+v, %v)", rec, ok)
	}
}
