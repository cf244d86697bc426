package ipmeta

import (
	"net/netip"
	"testing"
)

func buildClassifierFixture(t *testing.T) (*Classifier, map[string]netip.Addr) {
	t.Helper()
	b := NewBuilder()
	b.Add(mustPrefix(t, "10.0.0.0/16"), Org{Name: "home-isp", Kind: KindISP, Country: "ES"})
	b.Add(mustPrefix(t, "20.0.0.0/16"), Org{Name: "cloud-a", Kind: KindHosting, Country: "US"})
	b.Add(mustPrefix(t, "30.0.0.0/16"), Org{Name: "vpn-svc", Kind: KindVPN, Country: "US"})
	// cloud-b is NOT in the provider DB as hosting; it is mislabelled as
	// an ISP (a real-world MaxMind gap) but present on the deny list.
	b.Add(mustPrefix(t, "40.0.0.0/16"), Org{Name: "cloud-b", Kind: KindISP, Country: "US"})
	// cloud-c is only identifiable by manual verification.
	b.Add(mustPrefix(t, "50.0.0.0/16"), Org{Name: "cloud-c", Kind: KindISP, Country: "US"})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDenyList([]netip.Prefix{mustPrefix(t, "40.0.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{
		DB:       db,
		DenyList: dl,
		ManualVerify: func(r Record) bool {
			return r.Org.Name == "cloud-c"
		},
	}
	addrs := map[string]netip.Addr{
		"residential": netip.MustParseAddr("10.0.1.1"),
		"hosting":     netip.MustParseAddr("20.0.1.1"),
		"vpn":         netip.MustParseAddr("30.0.1.1"),
		"denied":      netip.MustParseAddr("40.0.1.1"),
		"manual":      netip.MustParseAddr("50.0.1.1"),
		"unknown":     netip.MustParseAddr("99.0.0.1"),
	}
	return c, addrs
}

func TestClassifierCascade(t *testing.T) {
	c, addrs := buildClassifierFixture(t)
	cases := []struct {
		name string
		want DataCenterVerdict
	}{
		{"residential", VerdictNotDataCenter},
		{"hosting", VerdictProviderDB},
		{"vpn", VerdictVPNException},
		{"denied", VerdictDenyList},
		{"manual", VerdictManual},
		{"unknown", VerdictNotDataCenter},
	}
	for _, tc := range cases {
		if got := c.Classify(addrs[tc.name]); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassifierStagesOptional(t *testing.T) {
	_, addrs := buildClassifierFixture(t)
	// Cascade with no stages classifies everything as clean.
	empty := &Classifier{}
	if got := empty.Classify(addrs["hosting"]); got != VerdictNotDataCenter {
		t.Fatalf("stage-less classify = %v", got)
	}
	// Deny-list-only cascade still catches listed ranges.
	dl, err := NewDenyList([]netip.Prefix{netip.MustParsePrefix("40.0.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	dlOnly := &Classifier{DenyList: dl}
	if got := dlOnly.Classify(addrs["denied"]); got != VerdictDenyList {
		t.Fatalf("deny-list-only classify = %v", got)
	}
	if got := dlOnly.Classify(addrs["hosting"]); got != VerdictNotDataCenter {
		t.Fatalf("deny-list-only classify of unlisted hosting = %v", got)
	}
}

func TestVerdictStrings(t *testing.T) {
	names := map[DataCenterVerdict]string{
		VerdictNotDataCenter: "not-data-center",
		VerdictProviderDB:    "provider-db",
		VerdictDenyList:      "deny-list",
		VerdictManual:        "manual",
		VerdictVPNException:  "vpn-exception",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestOrgKindStrings(t *testing.T) {
	if KindHosting.String() != "hosting" || KindISP.String() != "isp" {
		t.Fatal("OrgKind.String mismatch")
	}
	if OrgKind(99).String() != "OrgKind(99)" {
		t.Fatalf("unknown kind string = %q", OrgKind(99).String())
	}
}
