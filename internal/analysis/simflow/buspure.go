package simflow

import (
	"go/ast"

	"ufsclust/internal/analysis"
)

// BusPure checks telemetry bus subscribers for purity. Emit delivers
// events synchronously at the emission site, inside the model's hot
// paths; a subscriber that emits re-enters the bus and reorders the
// event stream (breaking byte-identical JSONL replay), one that blocks
// parks whatever process happened to be emitting, and one that calls
// back into a model package turns an observation hook into a hidden
// model edge whose work is attributed to arbitrary emission sites.
//
// Subscribers are the resolved arguments of (*telemetry.Bus).Subscribe
// call sites in the analyzed package; each violation reports the call
// path from the subscriber to the offending function.
var BusPure = &analysis.Analyzer{
	Name: "buspure",
	Doc:  "telemetry bus subscribers must not Emit, block, or call into model packages",
	AppliesTo: func(path string) bool {
		return analysis.ModuleScope(path) && !analysis.ToolingPackage(path)
	},
	Run: runBusPure,
}

func runBusPure(pass *analysis.Pass) {
	prog := ProgramFor(pass)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if staticCalleeKey(pass, call) != "ufsclust/internal/telemetry.Bus.Subscribe" || len(call.Args) != 1 {
				return true
			}
			for _, sub := range prog.ResolveValue(pass.Pkg, call.Args[0]) {
				checkSubscriber(pass, prog, call.Args[0], sub)
			}
			return true
		})
	}
}

// checkSubscriber reports the first instance of each violation class
// reachable from sub.
func checkSubscriber(pass *analysis.Pass, prog *Program, at ast.Expr, sub *Func) {
	if hit, path := prog.Reach(sub, func(f *Func) bool {
		return f.Obj != nil && FuncKey(f.Obj) == "ufsclust/internal/telemetry.Bus.Emit"
	}); hit != nil {
		pass.Reportf(at.Pos(), "bus subscriber %s re-enters Emit (event-stream order is no longer the emission order): %s",
			shortName(sub.Name), PathString(path))
	}
	if sub.MayBlock {
		pass.Reportf(at.Pos(), "bus subscriber %s may block the emitting process: %s",
			shortName(sub.Name), prog.BlockPath(sub))
	}
	if hit, path := prog.Reach(sub, func(f *Func) bool {
		return f.Obj != nil && f.Obj.Pkg() != nil && busModelPkgs[f.Obj.Pkg().Path()]
	}); hit != nil {
		pass.Reportf(at.Pos(), "bus subscriber %s calls into model package %s: %s",
			shortName(sub.Name), shortName(hit.Obj.Pkg().Path()), PathString(path))
	}
}

// busModelPkgs are the structural model packages a subscriber must not
// call back into. telemetry itself (histograms, formatting) is
// deliberately absent: it is the observation layer.
var busModelPkgs = map[string]bool{
	"ufsclust/internal/core":   true,
	"ufsclust/internal/ufs":    true,
	"ufsclust/internal/vm":     true,
	"ufsclust/internal/disk":   true,
	"ufsclust/internal/driver": true,
	"ufsclust/internal/extfs":  true,
	"ufsclust/internal/vol":    true,
	"ufsclust/internal/wal":    true,
	"ufsclust/internal/fault":  true,
}
