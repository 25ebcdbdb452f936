package musbus

import (
	"testing"

	"ufsclust"
	"ufsclust/internal/sim"
)

func TestRunCompletesIterations(t *testing.T) {
	res, err := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, Params{Users: 4, Duration: 60 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("only %d iterations in a simulated minute", res.Iterations)
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestTimeSharingImprovesOnlySlightly(t *testing.T) {
	// The paper's negative result: "the time-sharing benchmarks
	// improved only slightly" because MusBus moves no substantial data.
	prm := Params{Users: 4, Duration: 120 * sim.Second}
	a, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, prm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, prm)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Throughput() / d.Throughput()
	if ratio < 0.9 || ratio > 1.35 {
		t.Errorf("MusBus A/D throughput = %.2f (A=%.1f D=%.1f iter/min); clustering should change little",
			ratio, a.Throughput(), d.Throughput())
	}
}

func TestDeterministic(t *testing.T) {
	prm := Params{Users: 2, Duration: 30 * sim.Second}
	r1, err := Run(ufsclust.Scenario{Run: ufsclust.RunB()}, prm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ufsclust.Scenario{Run: ufsclust.RunB()}, prm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || r1.CPUTime != r2.CPUTime {
		t.Fatalf("not reproducible: %+v vs %+v", r1, r2)
	}
}
