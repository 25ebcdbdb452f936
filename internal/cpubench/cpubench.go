// Package cpubench reproduces Figure 12, the system-CPU comparison:
// read a 16 MB file through the mmap interface — chosen because "the
// IObench CPU times are dominated by the copy time"; mmap avoids the
// copy so the file system's own overhead shows — and report the CPU
// seconds consumed. The paper measured 3.4 s for the 4.1 UFS with
// rotdelays and 2.6 s for the 4.1.1 clustering UFS without, a ~25 %
// saving. It also reproduces the intro's sizing claim: "about half of a
// 12MIPS CPU was used to get half of the disk bandwidth of a
// 1.5MB/second disk" for the legacy read path with copies.
package cpubench

import (
	"fmt"
	"sort"
	"strings"

	"ufsclust"
	"ufsclust/internal/core"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Result is one row of Figure 12.
type Result struct {
	Label    string
	FileMB   int
	CPUTime  sim.Time // system CPU charged
	Elapsed  sim.Time
	RateKBs  float64
	CPUShare float64 // CPUTime / Elapsed
	Report   string  // per-category breakdown
}

// cpuReport reconstructs the per-category CPU breakdown (the format of
// cpu.Model.Report) from an interval's cpu.<category>.{ns,instr,calls}
// delta entries. Categories untouched during the interval delta to
// all-zero rows and are dropped — which is exactly what the old
// ResetStats-then-Report dance achieved by destroying the counters.
func cpuReport(d telemetry.Snapshot) string {
	type row struct {
		cat              string
		ns, instr, calls int64
	}
	byCat := map[string]*row{}
	var order []string
	for _, e := range d.Entries {
		rest, ok := strings.CutPrefix(e.Name, "cpu.")
		if !ok {
			continue
		}
		cat, field, ok := strings.Cut(rest, ".")
		if !ok {
			continue // cpu.system_ns / cpu.intr_ns totals
		}
		r := byCat[cat]
		if r == nil {
			r = &row{cat: cat}
			byCat[cat] = r
			order = append(order, cat)
		}
		switch field {
		case "ns":
			r.ns = e.Value
		case "instr":
			r.instr = e.Value
		case "calls":
			r.calls = e.Value
		}
	}
	rows := make([]*row, 0, len(order))
	for _, cat := range order {
		if r := byCat[cat]; r.ns != 0 || r.instr != 0 || r.calls != 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].cat < rows[j].cat
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %10s %8s\n", "category", "instructions", "cpu", "calls")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %12d %10v %8d\n", r.cat, r.instr, sim.Time(r.ns), r.calls)
	}
	fmt.Fprintf(&sb, "%-12s %12s %10v\n", "total", "", sim.Time(d.Get("cpu.system_ns")))
	return sb.String()
}

// MmapRead runs the Figure 12 measurement for one configuration.
func MmapRead(rc ufsclust.RunConfig, fileMB int) (Result, error) {
	return measure(rc, fileMB, "/mmapbench", func(p *sim.Proc, f *core.File, size int64) error {
		return f.ReadMmap(p, 0, size)
	})
}

// ReadWithCopy runs the sequential read through the normal read(2) path
// (copies included) and reports CPU share — the intro's "half of a
// 12MIPS CPU" observation for the legacy system.
func ReadWithCopy(rc ufsclust.RunConfig, fileMB int) (Result, error) {
	return measure(rc, fileMB, "/readbench", func(p *sim.Proc, f *core.File, size int64) error {
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			if _, err := f.Read(p, off, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// measure boots rc, writes a fileMB file at path, purges it from
// memory, and accounts the CPU and time read takes to get it back. The
// first I/O error ends the run and is returned: a rate over bytes that
// were never written is not a measurement.
func measure(rc ufsclust.RunConfig, fileMB int, path string, read func(p *sim.Proc, f *core.File, size int64) error) (Result, error) {
	if fileMB <= 0 {
		return Result{}, fmt.Errorf("cpubench: file size %d MB, want > 0", fileMB)
	}
	m, err := ufsclust.New(rc)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	size := int64(fileMB) << 20
	res := Result{Label: rc.Name, FileMB: fileMB}
	run := func(p *sim.Proc) error {
		f, err := m.Engine.Create(p, path)
		if err != nil {
			return err
		}
		chunk := make([]byte, 64<<10)
		for off := int64(0); off < size; off += int64(len(chunk)) {
			if _, err := f.Write(p, off, chunk); err != nil {
				return err
			}
		}
		if err := f.Purge(p); err != nil {
			return err
		}
		pre := m.Snapshot()
		t0 := p.Now()
		if err := read(p, f, size); err != nil {
			return err
		}
		res.Elapsed = p.Now() - t0
		delta := m.Snapshot().Delta(pre)
		res.CPUTime = sim.Time(delta.Get("cpu.system_ns"))
		res.Report = cpuReport(delta)
		return nil
	}
	var ioErr error
	err = m.Run(func(p *sim.Proc) { ioErr = run(p) })
	if err == nil {
		err = ioErr
	}
	if err != nil {
		return Result{}, fmt.Errorf("cpubench: %s, %d MB: %w", rc.Name, fileMB, err)
	}
	res.RateKBs = float64(size) / 1024 / res.Elapsed.Seconds()
	res.CPUShare = float64(res.CPUTime) / float64(res.Elapsed)
	return res, nil
}

// Figure12 runs both rows of the figure and returns (new, old).
func Figure12(fileMB int) (Result, Result, error) {
	newRes, err := MmapRead(ufsclust.RunA(), fileMB)
	if err != nil {
		return Result{}, Result{}, err
	}
	oldRes, err := MmapRead(ufsclust.RunD(), fileMB)
	if err != nil {
		return Result{}, Result{}, err
	}
	newRes.Label = "4.1.1 UFS, no rotdelays, mmap read"
	oldRes.Label = "4.1 UFS, rotdelays, mmap read"
	return newRes, oldRes, nil
}

// Format renders the two rows like the paper's figure.
func Format(newRes, oldRes Result) string {
	return fmt.Sprintf("%-6s %s\n%5.1fs %s\n%5.1fs %s\n(new/old CPU ratio %.2f; paper: 2.6/3.4 = 0.76)\n",
		"CPU", "Notes",
		newRes.CPUTime.Seconds(), newRes.Label+fmt.Sprintf(", %dMB", newRes.FileMB),
		oldRes.CPUTime.Seconds(), oldRes.Label+fmt.Sprintf(", %dMB", oldRes.FileMB),
		float64(newRes.CPUTime)/float64(oldRes.CPUTime))
}
