package iobench

import (
	"fmt"
	"strings"

	"ufsclust"
)

// ablationTable is a generated table of the ablations section: a
// caption, the column heads and lines that each show one value of a
// cell per column.
type ablationTable struct {
	caption string
	head    []string
	lines   []ablationLine
}

// ablationLine is a label, the claim the line tests, what it shows of a
// row and a cell per column (nil prints a dash).
type ablationLine struct {
	label, claim string
	show         func(Row) string
	cells        []*Cell
}

// ablationTables returns the tables of the two generated blocks by name:
// "ablations", the paper's design discussion, and "furtherwork". A cell
// is a run of Figure 9 with at most one thing changed, named by its
// Variant, and is shared by pointer wherever two lines show it.
func ablationTables() map[string][]ablationTable {
	cell := func(sc ufsclust.Scenario, kind Kind, prm Params, variant string, opts ...ufsclust.Option) *Cell {
		return &Cell{Scenario: sc, Variant: variant, Options: opts, Kind: kind, Params: prm, Counters: []string{"cpu.system_ns", "fs.bmap_calls",
			"fs.bmap_cache_hits", "core.hint_clusters", "core.sync_reads", "core.write_stalls", "driver.issued", "driver.coalesced"}}
	}
	rate := func(r Row) string { return fmt.Sprintf("%.0f", r.RateKBs) }
	cpuSeconds := func(r Row) string { return fmt.Sprintf("%.2f s", cpu(r)) }
	counter := func(name string) func(Row) string { return func(r Row) string { return fmt.Sprint(r.Counters[name]) } }

	runA, seq := ufsclust.Scenario{Run: ufsclust.RunA()}, Params{FileMB: 4}
	// legacy is run D at another rotdelay, the paper's "file system
	// tuning" alternative, reading and writing the 4 MB file.
	legacy := func(rot int, ra, variant string, opts ...ufsclust.Option) []*Cell {
		rc := ufsclust.RunD()
		rc.Name, rc.RotdelayMs = fmt.Sprintf("legacy %d ms", rot), rot
		sc := ufsclust.Scenario{Run: rc, ReadAhead: ra}
		return []*Cell{cell(sc, FSR, seq, variant, opts...), cell(sc, FSW, seq, variant, opts...)}
	}
	coalesce := func(o *ufsclust.Options) {
		dc := *o.Driver
		dc.Coalesce = true
		o.Driver = &dc
	}
	clustered := []*Cell{cell(runA, FSR, seq, ""), cell(runA, FSW, seq, "")}
	// Random 8 KB updates of an 8 MB file under each write limit, the
	// 240 KB one run A's own.
	update := Params{FileMB: 8}
	limit := func(kb int, label string) *Cell {
		return cell(runA, FRU, update, label, func(o *ufsclust.Options) { o.Engine.WriteLimit = int64(kb) << 10 })
	}
	limits := []*Cell{limit(8, "write limit 8 KB"), limit(56, "write limit 56 KB"), cell(runA, FRU, update, ""), limit(0, "no write limit")}
	// The bmap cache's random cell reads a 2 MB file at random four
	// times per block, so most reads hit the page cache (the UFS_HOLE
	// case); the hint's reads are 112 KB segments.
	hole, seg := Params{FileMB: 2, RandomOps: 1024}, Params{FileMB: 8, IOSize: 112 << 10, RandomOps: 64}
	bmapCache := func(o *ufsclust.Options) { o.Mount.BmapCache = true }
	bmap := []*Cell{clustered[0], cell(runA, FSR, seq, "bmap cache", bmapCache)}
	reread := []*Cell{cell(runA, FRR, hole, ""), cell(runA, FRR, hole, "bmap cache", bmapCache)}
	hint := []*Cell{cell(runA, FRR, seg, ""), cell(runA, FRR, seg, "random clustering", func(o *ufsclust.Options) { o.Engine.RandomClustering = true })}

	return map[string][]ablationTable{
		"ablations": {{"Sequential 8 KB calls on a 4 MB file, KB/s:", []string{"machine", "claim", "FSR", "FSW"}, []ablationLine{
			{"legacy engine, rotdelay 8 ms", "any rotdelay caps sequential I/O near half the disk", rate, legacy(8, "", "")},
			{"legacy engine, rotdelay 4 ms (run D)", "", rate, legacy(4, "", "")},
			{"legacy engine, rotdelay 2 ms", "", rate, legacy(2, "", "")},
			{"legacy engine, rotdelay 0 ms: tuning only", `reads gain, "write performance ... suffers horribly"`, rate, legacy(0, "", "")},
			{"tuning only, driver coalescing", `driver clustering "helps only writes"`, rate, legacy(0, "", "coalesce", coalesce)},
			{"legacy engine, rotdelay 4 ms, read-ahead off", "the rotdelay gap is there for read-ahead", rate, []*Cell{legacy(4, "off", "")[0], nil}},
			{"clustering (run A)", "only clustering gets both", rate, clustered},
		}}, {"Run A's random 8 KB updates of an 8 MB file under each per-file write limit:",
			[]string{"measure", "claim", "8 KB", "56 KB", "240 KB (run A)", "none"}, []ablationLine{
				{"KB/s", "too small a limit starves the disk sort; 240 KB keeps most of the unlimited rate", rate, limits},
				{"write stalls", "", counter("core.write_stalls"), limits},
			}}},
		"furtherwork": {{"Run A with each Further Work idea off and on: the bmap cache on the 4 MB FSR cell and on 1024 " +
			"random reads of a 2 MB file (most hit the page cache), the hint on 64 random 112 KB reads of an 8 MB file:",
			[]string{"measure", "claim", "off", "on"}, []ablationLine{
				{"bmap cache: system CPU", `"could reduce the cost of bmap substantially"`, cpuSeconds, bmap},
				{"bmap cache: bmap calls", "", counter("fs.bmap_calls"), bmap},
				{"bmap cache: KB/s", "", rate, bmap},
				{"bmap cache: demand reads", "", counter("core.sync_reads"), bmap},
				{"bmap cache, random re-reads: system CPU", "does UFS_HOLE's job: skip the bmap of a cached page", cpuSeconds, reread},
				{"bmap cache, random re-reads: bmap calls", "", counter("fs.bmap_calls"), reread},
				{"bmap cache, random re-reads: KB/s", "", rate, reread},
				{"random clustering: KB/s", "pass the request size down as a hint", rate, hint},
				{"random clustering: driver I/Os", "", counter("driver.issued"), hint},
				{"random clustering: hint clusters", "", counter("core.hint_clusters"), hint},
			}}},
	}
}

// Ablations returns the cells of the ablation tables, each once, in the
// order the tables first show them: the "ablations" section of
// BENCH_iobench.json, which RenderPaper("ablations") and
// RenderPaper("furtherwork") lay out.
func Ablations() []Cell {
	var cells []Cell
	seen := map[*Cell]bool{}
	tables := ablationTables()
	for _, name := range []string{"ablations", "furtherwork"} {
		for _, t := range tables[name] {
			for _, l := range t.lines {
				for _, c := range l.cells {
					if c != nil && !seen[c] {
						seen[c] = true
						cells = append(cells, *c)
					}
				}
			}
		}
	}
	return cells
}

// renderAblations lays out the tables of name, finding each cell's row
// by the fields the ablation cells differ in.
func renderAblations(name string, rows []Row) (string, error) {
	var tabs []string
	for _, t := range ablationTables()[name] {
		body := [][]string{t.head}
		for _, l := range t.lines {
			line := []string{l.label, l.claim}
		cells:
			for _, c := range l.cells {
				if c == nil {
					line = append(line, "—")
					continue
				}
				p := c.Params.withDefaults()
				for _, r := range rows {
					if r.Run == c.Scenario.Run.Name && r.Variant == c.Variant && r.Kind == c.Kind && r.ReadAhead == c.Scenario.ReadAhead &&
						r.FileMB == p.FileMB && r.IOKB == c.Params.IOSize>>10 && r.RandomOps == c.Params.RandomOps {
						line = append(line, "**"+l.show(r)+"**")
						continue cells
					}
				}
				return "", fmt.Errorf("iobench: no row for run %s %s %q", c.Scenario.Run.Name, c.Kind, c.Variant)
			}
			body = append(body, line)
		}
		tabs = append(tabs, table(t.caption, body...))
	}
	return strings.Join(tabs, "\n"), nil
}
