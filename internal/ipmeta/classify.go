package ipmeta

import "net/netip"

// DataCenterVerdict records how an address was classified as data-center
// traffic, mirroring the paper's three-stage methodology: (1) map the IP
// to its provider with MaxMind, (2) check the Botlab deny-hosting list,
// (3) manually verify the remaining providers' websites.
type DataCenterVerdict int

const (
	// VerdictNotDataCenter means the address is not attributable to a
	// data-center provider by any stage.
	VerdictNotDataCenter DataCenterVerdict = iota
	// VerdictProviderDB means stage 1 classified the owning organisation
	// as a hosting/cloud provider.
	VerdictProviderDB
	// VerdictDenyList means stage 2 found the address on the
	// deny-hosting list.
	VerdictDenyList
	// VerdictManual means stage 3 (manual provider verification)
	// identified the provider as offering data-center services.
	VerdictManual
	// VerdictVPNException means the address is in hosting space operated
	// as a VPN service — excluded from invalid traffic per the MRC
	// guidelines the paper cites.
	VerdictVPNException
)

// String returns the verdict name.
func (v DataCenterVerdict) String() string {
	switch v {
	case VerdictNotDataCenter:
		return "not-data-center"
	case VerdictProviderDB:
		return "provider-db"
	case VerdictDenyList:
		return "deny-list"
	case VerdictManual:
		return "manual"
	case VerdictVPNException:
		return "vpn-exception"
	default:
		return "unknown"
	}
}

// Classifier implements the paper's data-center detection cascade.
type Classifier struct {
	// DB is the stage-1 provider database (MaxMind stand-in). Optional.
	DB *DB
	// DenyList is the stage-2 deny-hosting list (Botlab stand-in).
	// Optional.
	DenyList *DenyList
	// ManualVerify is the stage-3 fallback: given the provider record of
	// an address the first two stages did not flag, report whether manual
	// inspection of the provider's website shows data-center services.
	// Optional; when nil, stage 3 is skipped.
	ManualVerify func(Record) bool
}

// Classify runs the cascade on addr. Safe for concurrent use once the
// DB and deny list are built.
func (c *Classifier) Classify(addr netip.Addr) DataCenterVerdict {
	var rec Record
	var known bool
	if c.DB != nil {
		rec, known = c.DB.Lookup(addr)
		if known {
			switch rec.Org.Kind {
			case KindVPN:
				return VerdictVPNException
			case KindHosting:
				return VerdictProviderDB
			}
		}
	}
	if c.DenyList != nil && c.DenyList.Contains(addr) {
		return VerdictDenyList
	}
	if known && c.ManualVerify != nil && c.ManualVerify(rec) {
		return VerdictManual
	}
	return VerdictNotDataCenter
}
