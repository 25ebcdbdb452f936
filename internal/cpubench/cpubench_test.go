package cpubench

import (
	"strings"
	"testing"

	"ufsclust"
)

func TestFigure12Shape(t *testing.T) {
	newRes, oldRes, err := Figure12(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Format(newRes, oldRes))
	t.Logf("new breakdown:\n%s", newRes.Report)
	t.Logf("old breakdown:\n%s", oldRes.Report)
	// Paper: 2.6s vs 3.4s — the clustering UFS uses ~25% less CPU.
	ratio := float64(newRes.CPUTime) / float64(oldRes.CPUTime)
	if ratio >= 0.95 {
		t.Errorf("CPU ratio new/old = %.2f, want < 0.95 (paper 0.76)", ratio)
	}
	if ratio < 0.5 {
		t.Errorf("CPU ratio new/old = %.2f implausibly low (paper 0.76)", ratio)
	}
	// Absolute CPU seconds should be within ~2x of the paper's 2.6/3.4.
	if s := oldRes.CPUTime.Seconds(); s < 1.7 || s > 6.8 {
		t.Errorf("old CPU = %.2fs, want ~3.4s", s)
	}
	if s := newRes.CPUTime.Seconds(); s < 1.3 || s > 5.2 {
		t.Errorf("new CPU = %.2fs, want ~2.6s", s)
	}
}

func TestIntroHalfCPUHalfBandwidth(t *testing.T) {
	// "Measuring the existing UFS showed that about half of a 12MIPS
	// CPU was used to get half of the disk bandwidth of a 1.5MB/second
	// disk."
	res, err := ReadWithCopy(ufsclust.RunD(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("legacy read: %.0f KB/s at %.0f%% CPU", res.RateKBs, res.CPUShare*100)
	if res.RateKBs < 600 || res.RateKBs > 1000 {
		t.Errorf("legacy rate = %.0f KB/s, want ~750 (half of ~1.5MB/s)", res.RateKBs)
	}
	if res.CPUShare < 0.25 || res.CPUShare > 0.75 {
		t.Errorf("legacy CPU share = %.2f, want ~0.5", res.CPUShare)
	}
}

func TestClusteredReadUsesLessCPUPerByte(t *testing.T) {
	newRes, err := ReadWithCopy(ufsclust.RunA(), 8)
	if err != nil {
		t.Fatal(err)
	}
	oldRes, err := ReadWithCopy(ufsclust.RunD(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Same bytes moved; the clustered engine must charge less CPU.
	if newRes.CPUTime >= oldRes.CPUTime {
		t.Errorf("clustered CPU %v >= legacy %v for the same bytes", newRes.CPUTime, oldRes.CPUTime)
	}
}

func TestReportHasBreakdown(t *testing.T) {
	res, err := MmapRead(ufsclust.RunA(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"fault", "getpage", "total"} {
		if !strings.Contains(res.Report, cat) {
			t.Errorf("report missing %q:\n%s", cat, res.Report)
		}
	}
	// The mmap path must not copy.
	if strings.Contains(res.Report, "copy") {
		t.Errorf("mmap read charged copy time:\n%s", res.Report)
	}
}

// TestCPUBenchReportsFullDisk: a file the 400 MB drive cannot hold must
// come back as the write's error, not as a rate over bytes that were
// never written.
func TestCPUBenchReportsFullDisk(t *testing.T) {
	for name, run := range map[string]func(ufsclust.RunConfig, int) (Result, error){
		"ReadWithCopy": ReadWithCopy, "MmapRead": MmapRead,
	} {
		res, err := run(ufsclust.RunD(), 450)
		if err == nil {
			t.Errorf("%s: 450 MB on a 400 MB drive measured %.0f KB/s, want an error", name, res.RateKBs)
		}
	}
}

func TestCPUBenchRejectsNegativeSize(t *testing.T) {
	for _, mb := range []int{-1, 0} {
		if _, err := ReadWithCopy(ufsclust.RunD(), mb); err == nil {
			t.Errorf("ReadWithCopy(%d MB): no error", mb)
		}
		if _, _, err := Figure12(mb); err == nil {
			t.Errorf("Figure12(%d MB): no error", mb)
		}
	}
}
