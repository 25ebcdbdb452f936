package iobench

import (
	"fmt"
	"slices"
	"strings"
)

// PaperTables names the generated tables in the order EXPERIMENTS.md
// prints them, each the Name of one <!-- paper:NAME --> …
// <!-- /paper:NAME --> block there, beside the Section of
// BENCH_iobench.json it is rendered from: the paper's evaluation, then
// its design-discussion ablations and Further Work ideas.
var PaperTables = []struct{ Name, Section string }{
	{"fig10", "paper"}, {"fig11", "paper"}, {"fig12", "paper"}, {"intro", "paper"}, {"alloc", "paper"}, {"musbus", "paper"},
	{"ablations", "ablations"}, {"furtherwork", "ablations"},
}

// paperFig10 is the paper's Figure 10 in KB/s. Its Figure 11 is these
// rates' ratios, so both tables derive their paper rows from here the
// way they derive the measured rows from the cells.
var paperFig10 = map[string]map[Kind]float64{
	"A": {FSR: 1610, FSU: 1364, FSW: 1359, FRR: 383, FRU: 452},
	"B": {FSR: 805, FSU: 799, FSW: 790, FRR: 369, FRU: 431},
	"C": {FSR: 749, FSU: 783, FSW: 784, FRR: 366, FRU: 428},
	"D": {FSR: 749, FSU: 722, FSW: 718, FRR: 370, FRU: 545},
}

// RenderPaper renders the paper table name from measured rows as
// markdown, the paper's reference row beside each measured one. It is
// the only formatter of a paper table: EXPERIMENTS.md's generated blocks
// are the paper section of BENCH_iobench.json rendered through it, and
// every command that prints a paper table renders the rows it just
// measured through it. Rows a table does not use are ignored; a table
// whose rows are missing is an error.
func RenderPaper(name string, rows []Row) (string, error) {
	switch name {
	case "fig10", "fig11":
		return figure10(name == "fig11", rows)
	case "fig12":
		a, d := find(rows, "A", FSM), find(rows, "D", FSM)
		if a == nil || d == nil {
			return "", fmt.Errorf("iobench: Figure 12 needs the FSM cells of runs A and D")
		}
		return table(fmt.Sprintf("System CPU seconds to read a %d MB file through mmap:", a.FileMB),
			[]string{"", "4.1.1 UFS, no rotdelays (run A)", "4.1 UFS, rotdelays (run D)", "new/old"},
			[]string{"paper", "2.6 s", "3.4 s", "0.76"},
			measured("measured", fmt.Sprintf("%.2f s", cpu(*a)), fmt.Sprintf("%.2f s", cpu(*d)), fmt.Sprintf("%.2f", cpu(*a)/cpu(*d)))), nil
	case "intro":
		// Run D's FSR cell: its rate, and its system CPU over the elapsed
		// time the rate implies.
		d := find(rows, "D", FSR)
		if d == nil {
			return "", fmt.Errorf("iobench: the intro claim needs run D's FSR cell")
		}
		elapsed := float64(d.FileMB) * 1024 / d.RateKBs
		return table(fmt.Sprintf("Run D, the legacy engine, reading a %d MB file through read(2), copies included:", d.FileMB),
			[]string{"", "rate", "system CPU"},
			[]string{"paper", "half of a 1.5 MB/s disk", "about half of a 12 MIPS CPU"},
			measured("measured", fmt.Sprintf("%.0f KB/s", d.RateKBs), fmt.Sprintf("%.0f %%", 100*cpu(*d)/elapsed))), nil
	case "alloc":
		body := [][]string{{"case", "average extent", "extents", "largest"}}
		var caption string
		for _, r := range rows {
			if r.Extents == 0 {
				continue
			}
			caption = fmt.Sprintf("Extents of one file on run %s's file system:", r.Run)
			paper, label := []string{"paper best: 13 MB file, empty fs", "1.5 MB", "", ""}, fmt.Sprintf("measured best: %d MB file, empty fs", r.FileMB)
			if r.Full > 0 {
				paper = []string{"paper worst: 16 MB file, aged to 85 % full", "62 KB", "", ""}
				label = fmt.Sprintf("measured worst: %d MB file, aged to %.0f %% full, churn %d", r.FileMB, 100*r.Full, r.Churn)
			}
			body = append(body, paper, measured(label,
				fmt.Sprintf("%.1f KB", r.AvgExtentKB), fmt.Sprint(r.Extents), fmt.Sprintf("%.0f KB", r.MaxExtentKB)))
		}
		if caption == "" {
			return "", fmt.Errorf("iobench: no allocator rows")
		}
		return table(caption, body...), nil
	case "ablations", "furtherwork":
		return renderAblations(name, rows)
	case "musbus":
		body := [][]string{{"run", "script iterations per minute", "system CPU"}, {"paper", "improved only slightly", ""}}
		var caption string
		for _, r := range rows {
			if r.Users == 0 {
				continue
			}
			caption = fmt.Sprintf("%d users, %d virtual minutes:", r.Users, r.Minutes)
			body = append(body, measured("measured "+r.Run,
				fmt.Sprintf("%.1f", float64(r.Iterations)/float64(r.Minutes)), fmt.Sprintf("%.1f s", cpu(r))))
		}
		if caption == "" {
			return "", fmt.Errorf("iobench: no MusBus rows")
		}
		return table(caption, body...), nil
	}
	return "", fmt.Errorf("iobench: no paper table %q", name)
}

// figure10 renders Figure 10 — each run's rates — or, with ratios,
// Figure 11 — the first run's rates over each later run's: a paper row,
// where the paper has the run, above each measured one.
func figure10(ratios bool, rows []Row) (string, error) {
	rates := map[string]map[Kind]float64{}
	var runs []string
	fileMB := 0
	for _, r := range rows {
		if slices.Contains(Kinds(), r.Kind) {
			if rates[r.Run] == nil {
				runs = append(runs, r.Run)
				rates[r.Run] = map[Kind]float64{}
			}
			rates[r.Run][r.Kind], fileMB = r.RateKBs, r.FileMB
		}
	}
	for _, run := range runs {
		if len(rates[run]) != len(Kinds()) {
			return "", fmt.Errorf("iobench: Figure 10 needs all of %v for run %s", Kinds(), run)
		}
	}
	header := []string{"run"}
	caption, format, labels := fmt.Sprintf("KB/s, %d MB file:", fileMB), "%.0f", runs
	if ratios && len(runs) > 0 {
		header[0], caption, format, labels = "ratio", fmt.Sprintf("Rate ratios, %d MB file:", fileMB), "%.2f", runs[1:]
	}
	if len(labels) == 0 {
		return "", fmt.Errorf("iobench: too few runs for the table: %v", runs)
	}
	for _, k := range Kinds() {
		header = append(header, string(k))
	}
	body := [][]string{header}
	for _, run := range labels {
		label := run
		if ratios {
			label = runs[0] + "/" + run
		}
		for i, of := range []map[string]map[Kind]float64{paperFig10, rates} {
			if of[run] == nil || of[runs[0]] == nil {
				continue // the paper ran A-D only
			}
			var cells []string
			for _, k := range Kinds() {
				v := of[run][k]
				if ratios {
					v = of[runs[0]][k] / v
				}
				cells = append(cells, fmt.Sprintf(format, v))
			}
			if i == 0 {
				body = append(body, append([]string{"paper " + label}, cells...))
			} else {
				body = append(body, measured("measured "+label, cells...))
			}
		}
	}
	return table(caption, body...), nil
}

// find returns the first row of run and kind, or nil.
func find(rows []Row, run string, kind Kind) *Row {
	for i := range rows {
		if rows[i].Run == run && rows[i].Kind == kind {
			return &rows[i]
		}
	}
	return nil
}

// cpu is a row's system CPU seconds over its measured phase.
func cpu(r Row) float64 { return float64(r.Counters["cpu.system_ns"]) / 1e9 }

// measured bolds a measured row so it stands out beside the paper's.
func measured(label string, cells ...string) []string {
	row := []string{"**" + label + "**"}
	for _, c := range cells {
		row = append(row, "**"+c+"**")
	}
	return row
}

// table lays out a caption and a markdown table whose first row is the
// header.
func table(caption string, rows ...[]string) string {
	var sb strings.Builder
	sb.WriteString(caption + "\n\n")
	for i, row := range rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			sb.WriteString("|" + strings.Repeat("---|", len(row)) + "\n")
		}
	}
	return sb.String()
}
