package core

import (
	"hypertp/internal/fault"
	"hypertp/internal/migration"
	"hypertp/internal/simtime"
)

// MigrationTP performs one migration-based transplant of a VM to a
// (possibly heterogeneous) destination hypervisor on another machine,
// and blocks (in virtual time) until it completes. faults, when non-nil,
// is attached to p.Link for the duration of the call: the per-transfer
// link.abort and link.loss injection sites become live. p.Obs, when
// non-nil, records the migration under a "migration-tp" root. For
// concurrent migrations drive migration.Run directly.
func MigrationTP(clock *simtime.Clock, p migration.Params, faults *fault.Plan) (*migration.Report, error) {
	var report *migration.Report
	var err error
	root := p.Obs.Start("migration-tp")
	if faults != nil {
		p.Link.SetFaults(faults)
		defer p.Link.SetFaults(nil)
	}
	migration.Run(clock, p, func(r *migration.Report, e error) { report, err = r, e })
	clock.Run()
	root.End()
	if err != nil {
		return nil, err
	}
	return report, nil
}
