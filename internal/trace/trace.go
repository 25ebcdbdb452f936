// Package trace renders the paper's access-pattern figures (3, 6, 7)
// from live executions of the engine: for each page touched it records
// what the file system did — synchronous reads, asynchronous
// read-aheads, delayed-write "lies", cluster pushes — and the relevant
// inode predictor after the call, then lays the events out as the paper
// does, one column per page.
package trace

import (
	"fmt"
	"io"
	"strings"

	"ufsclust"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
)

// actionName maps the bus events the figures care about to the paper's
// vocabulary. Other event kinds return "".
func actionName(k telemetry.EventKind) string {
	switch k {
	case telemetry.EvSyncRead:
		return "sync"
	case telemetry.EvReadAhead:
		return "async"
	case telemetry.EvWriteLie:
		return "lie"
	case telemetry.EvClusterPush:
		return "push"
	}
	return ""
}

// PageEvents is everything that happened during the fault (or putpage)
// for one page.
type PageEvents struct {
	Page    int64
	Actions []string // e.g. "sync 0,1,2", "async 3,4,5", "lie", "push 0,1,2"
	Pred    int64    // nextr (fig 3) or nextrio (fig 6) after the call
}

// Figure is a rendered access-pattern table.
type Figure struct {
	Title     string
	PredLabel string // "nextr" / "nextrio" / "" for fig 7
	Pages     []PageEvents
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintln(w, f.Title)
	width := 16
	cell := func(s string) string {
		if len(s) > width-2 {
			s = s[:width-2]
		}
		return fmt.Sprintf("%-*s", width, s)
	}
	var rows [][]string
	maxActs := 0
	for _, p := range f.Pages {
		if len(p.Actions) > maxActs {
			maxActs = len(p.Actions)
		}
	}
	header := []string{"page"}
	for _, p := range f.Pages {
		header = append(header, fmt.Sprintf("%d", p.Page))
	}
	rows = append(rows, header)
	for a := 0; a < maxActs; a++ {
		row := []string{""}
		for _, p := range f.Pages {
			if a < len(p.Actions) {
				row = append(row, p.Actions[a])
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	if f.PredLabel != "" {
		row := []string{f.PredLabel}
		for _, p := range f.Pages {
			row = append(row, fmt.Sprintf("%d", p.Pred))
		}
		rows = append(rows, row)
	}
	for i, row := range rows {
		var sb strings.Builder
		for _, c := range row {
			sb.WriteString(cell(c))
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		if i == 0 {
			fmt.Fprintln(w, strings.Repeat("-", width*len(row)))
		}
	}
}

func lbnList(lbn int64, n int) string {
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, fmt.Sprintf("%d", lbn+int64(i)))
	}
	return strings.Join(parts, ",")
}

// figure traces npages calls of one block each on a small machine of
// the given tuning: a sequential read of a file written and purged
// first, or with write a sequential write that allocates as it goes.
// For every call it records the events the figures show — a lie bare,
// the rest with the blocks they move — and the predictor fig.PredLabel
// names, after the call.
func figure(fig *Figure, rotdelayMs, maxcontig, npages int, clustered, write bool) (*Figure, error) {
	opts := ufsclust.Options{Mkfs: ufs.MkfsOpts{Rotdelay: rotdelayMs, Maxcontig: maxcontig}}
	opts.Engine.Clustered, opts.Engine.Prefetch = clustered, prefetch.NewFixed()
	m, err := ufsclust.NewMachine(opts)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/trace")
		if err != nil {
			return
		}
		if !write {
			f.Write(p, 0, make([]byte, (npages+3*maxcontig+2)*8192))
			f.Purge(p)
		}
		var cur *PageEvents
		m.Tel.Bus.Subscribe(func(ev telemetry.Event) {
			name := actionName(ev.Kind)
			if cur == nil || name == "" {
				return
			}
			if ev.Kind != telemetry.EvWriteLie {
				name += " " + lbnList(ev.LBN, int(ev.Blocks))
			}
			cur.Actions = append(cur.Actions, name)
		})
		buf := make([]byte, 8192)
		for i := 0; i < npages; i++ {
			pe := PageEvents{Page: int64(i)}
			cur = &pe
			if write {
				f.Write(p, int64(i)*8192, buf)
			} else {
				f.Read(p, int64(i)*8192, buf)
			}
			nextr, nextrio := f.Cursors()
			switch fig.PredLabel {
			case "nextr":
				pe.Pred = nextr
			case "nextrio":
				pe.Pred = nextrio
			}
			fig.Pages = append(fig.Pages, pe)
		}
		cur = nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Figure3 reproduces the legacy one-block read-ahead table.
func Figure3() (*Figure, error) {
	return figure(&Figure{Title: "Figure 3: access pattern showing read ahead (legacy UFS)", PredLabel: "nextr"},
		4, 1, 3, false, false)
}

// Figure6 reproduces the clustered-read table with maxcontig = 3.
func Figure6() (*Figure, error) {
	return figure(&Figure{Title: "Figure 6: clustered reads when maxcontig = 3", PredLabel: "nextrio"},
		0, 3, 7, true, false)
}

// Figure7 reproduces the clustered-write ("lie/push") table with
// maxcontig = 3.
func Figure7() (*Figure, error) {
	return figure(&Figure{Title: "Figure 7: clustered writes with maxcontig = 3"}, 0, 3, 6, true, true)
}
