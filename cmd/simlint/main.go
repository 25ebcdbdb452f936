// Command simlint runs the repository's determinism and
// simulation-hygiene static analyzers (internal/analysis and
// internal/analysis/simflow) and prints one line per finding:
//
//	file:line:col: [rule] message
//
// Usage:
//
//	simlint [-rule detrand,blockpath,...] [-json] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 0 when the tree is clean, 1 when there are findings, and 2
// on usage or load errors. With -json each finding is one JSON object
// per line (sorted by position, byte-stable between runs); the human
// summary still goes to stderr. Findings are suppressed at the
// offending line (or the line above) with `// simlint:ignore <rules>`
// or, for panicpath's audited invariant assertions,
// `// simlint:invariant`; the stalesuppress rule reports directives
// that no longer suppress anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ufsclust/internal/analysis"
	_ "ufsclust/internal/analysis/simflow" // registers blockpath, buspure, timeflow
)

func main() {
	os.Exit(run())
}

func run() int {
	rule := flag.String("rule", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-rule r1,r2] [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		names := make([]*analysis.Analyzer, len(analysis.Analyzers))
		copy(names, analysis.Analyzers)
		sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
		for _, a := range names {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := analysis.Analyzers
	if *rule != "" {
		selected = nil
		for _, name := range strings.Split(*rule, ",") {
			name = strings.TrimSpace(name)
			a := analysis.FindAnalyzer(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "simlint: unknown rule %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(loader, patterns, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}

	counts := make(map[string]int)
	for _, d := range diags {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		counts[d.Rule]++
		if *jsonOut {
			enc, _ := json.Marshal(struct {
				File string `json:"file"`
				Line int    `json:"line"`
				Col  int    `json:"col"`
				Rule string `json:"rule"`
				Msg  string `json:"msg"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg})
			fmt.Println(string(enc))
		} else {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s=%d", name, counts[name])
		}
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s): %s\n", len(diags), strings.Join(parts, " "))
		return 1
	}
	return 0
}
