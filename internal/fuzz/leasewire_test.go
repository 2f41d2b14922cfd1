package fuzz_test

import (
	"sonar/internal/fleet"
	"sonar/internal/fuzz"
)

// The lease tests of package fuzz round-trip leases and reports through the
// campaign service's wire encoding, which lives in package fleet: an
// importer of fuzz, so only this external test package can reach it. Test
// binaries run every init before any test.
func init() {
	fuzz.LeaseWire.Lease = func(l *fuzz.Lease) (*fuzz.Lease, error) {
		g, err := fleet.DecodeGrant(fleet.AppendGrant(nil, &fleet.LeaseGrant{Lease: *l}))
		if err != nil {
			return nil, err
		}
		return &g.Lease, nil
	}
	fuzz.LeaseWire.EncodeReport = func(res *fuzz.LeaseResult) []byte { return fleet.AppendReport(nil, res) }
	fuzz.LeaseWire.DecodeReport = fleet.DecodeReport
}
