package alloclab

import (
	"fmt"

	"ufsclust"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
)

// Case is one contiguity measurement: the extents of one file of
// FileBytes, allocated on a fresh file system that is first aged by Age
// — unless Age is the zero value, which measures the best case on the
// empty file system.
type Case struct {
	FileBytes int64
	Age       AgeOpts
}

// Measure boots sc's machine and measures c on it. It is the one
// boot-and-run path of the experiment: cmd/allocstat, the matrix's
// paper cells and SweepWorstCase all call it.
func Measure(sc ufsclust.Scenario, c Case) (*Report, error) {
	m, err := sc.New()
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var rep *Report
	var ferr error
	err = m.Run(func(p *sim.Proc) {
		if c.Age == (AgeOpts{}) {
			rep, ferr = BestCase(p, m.FS, c.FileBytes)
		} else {
			rep, ferr = WorstCase(p, m.FS, c.FileBytes, c.Age)
		}
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("run %s, %d MB file: %w", sc.Run.Name, c.FileBytes>>20, err)
	}
	return rep, nil
}

// SweepWorstCase measures every case, each on a freshly built machine,
// across workers host goroutines (0 means GOMAXPROCS, 1 means serial),
// and returns the reports in case order. Every case is an independent
// deterministic simulation, so the result is identical whatever the
// worker count — parallelism buys wall-clock time on what is by far the
// repository's most expensive experiment (each aged case fills, churns,
// and re-fills a whole file system).
func SweepWorstCase(sc ufsclust.Scenario, cases []Case, workers int) ([]*Report, error) {
	return runner.Map(len(cases), runner.Options{Workers: workers}, func(i int) (*Report, error) {
		return Measure(sc, cases[i])
	})
}
