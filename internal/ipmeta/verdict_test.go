package ipmeta_test

import (
	"testing"

	"adaudit/internal/audit"
	"adaudit/internal/ipmeta"
)

// TestClassifierVerdictSemantics: the audit's one data-center rule,
// which reads the verdict as stored (its String form), counts the three
// cascade stages as data-center traffic and the VPN exception and the
// clean verdict as not.
func TestClassifierVerdictSemantics(t *testing.T) {
	for _, v := range []ipmeta.DataCenterVerdict{ipmeta.VerdictProviderDB, ipmeta.VerdictDenyList, ipmeta.VerdictManual} {
		if !audit.IsDataCenterVerdict(v.String()) {
			t.Errorf("%v is not counted as data-center traffic", v)
		}
	}
	for _, v := range []ipmeta.DataCenterVerdict{ipmeta.VerdictNotDataCenter, ipmeta.VerdictVPNException} {
		if audit.IsDataCenterVerdict(v.String()) {
			t.Errorf("%v is counted as data-center traffic", v)
		}
	}
}
