package tiertest

import (
	"net/http"
	"net/netip"

	"adaudit/internal/beacon"
	"adaudit/internal/wsproto"
)

// BeaconMutants are the tier broken through one exported field of its
// beacon endpoint at a time, each with the rows that must catch it. No
// field reaches rows 9–11 (the daemon's shutdown order, the listener's
// wrapping, trunk.Receiver's refusals), 13, 14 or 15 (trunk.Authorized);
// the tier packages add Config mutants for row 12.
func BeaconMutants(spec Spec) []Mutant {
	mutant := func(name string, f func(*beacon.Server), kills ...*Row) Mutant {
		return Mutant{Name: name, Spec: broken(spec, f), Kills: kills}
	}
	ms := []Mutant{
		mutant("Admit never sheds", func(b *beacon.Server) { b.Admit = func(string) string { return "" } },
			FrontRefusals, CapacityShed),
		mutant("Serve never commits", func(b *beacon.Server) {
			b.Serve = func(s *beacon.ServerSession, _ netip.Addr) { s.Run(nil) }
		}, BothPathsCommit, DrainedSession),
		mutant("upgrades uncounted", func(b *beacon.Server) { b.Upgrades = nil }, PlainHTTP, BothPathsCommit),
		mutant("DrainClose is 1000", func(b *beacon.Server) { b.DrainClose = wsproto.CloseError{Code: wsproto.CloseNormal} },
			UpgradeRacingDrain, DrainedSession),
		mutant("Shed without Retry-After", func(b *beacon.Server) {
			shed := b.Shed
			b.Shed = func(w http.ResponseWriter, reason string) { shed(noRetryAfter{w}, reason) }
		}, CapacityShed),
		mutant("DecodeBinary always panics", func(b *beacon.Server) {
			b.DecodeBinary = func(*beacon.Payload, []byte) error { panic("mutant decode") }
		}, SessionPanic),
	}
	if spec.Rejects != nil {
		ms = append(ms, mutant("Refused is nil", func(b *beacon.Server) { b.Refused = nil }, UnparseablePeer))
	}
	return ms
}

// noRetryAfter drops the Retry-After header a shed sets.
type noRetryAfter struct{ http.ResponseWriter }

func (w noRetryAfter) WriteHeader(code int) {
	w.Header().Del("Retry-After")
	w.ResponseWriter.WriteHeader(code)
}
