package alloclab

import (
	"fmt"

	"ufsclust"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
)

// SweepPoint is one aging configuration in a contiguity sweep.
type SweepPoint struct {
	FileBytes int64
	Age       AgeOpts
}

// SweepResult pairs a point with its measured worst-case report.
type SweepResult struct {
	Point  SweepPoint
	Report *Report
}

// SweepWorstCase measures the worst-case contiguity at every point,
// each on a freshly built and aged machine, across workers host
// goroutines (0 means GOMAXPROCS, 1 means serial). Every point is an
// independent deterministic simulation, so the result slice is
// identical whatever the worker count — parallelism buys wall-clock
// time on what is by far the repository's most expensive experiment
// (each point fills, churns, and re-fills a whole file system).
func SweepWorstCase(rc ufsclust.RunConfig, points []SweepPoint, workers int) ([]SweepResult, error) {
	return runner.Map(len(points), runner.Options{Workers: workers}, func(i int) (SweepResult, error) {
		pt := points[i]
		m, err := ufsclust.New(rc)
		if err != nil {
			return SweepResult{}, err
		}
		defer m.Close()
		var rep *Report
		runErr := m.Run(func(p *sim.Proc) {
			var ferr error
			rep, ferr = WorstCase(p, m.FS, pt.FileBytes, pt.Age)
			if ferr != nil {
				err = fmt.Errorf("worst case at %.0f%% full: %w", pt.Age.TargetFull*100, ferr)
			}
		})
		if runErr != nil {
			return SweepResult{}, runErr
		}
		if err != nil {
			return SweepResult{}, err
		}
		return SweepResult{Point: pt, Report: rep}, nil
	})
}
