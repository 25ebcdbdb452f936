package simflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"ufsclust/internal/analysis"
)

// BlockPath flags calls that may park the calling process made from
// contexts where there is no process to park, or while a metadata
// buffer is held:
//
//   - Callbacks registered with (*sim.Sim).After/At, metric getters
//     registered with (*telemetry.Registry).Counter/Gauge/CounterSource,
//     and I/O completion callbacks (driver.Buf.Iodone, disk.Request.Done)
//     all run in scheduler context. Blocking there corrupts the run: the
//     scheduler is not a Proc, so Sleep/Block would park the kernel.
//   - Between acquiring a buffer with Bcache.Bread/getblk and releasing
//     it (Brelse/Bwrite/Bdwrite/BwriteOrdered/metaWrite, or function
//     return), a call that may block and does not mention the buffer can
//     deadlock against another process waiting for that buffer, and at
//     best stretches the hold time nondeterministically relative to
//     other lock orders.
//
// Callback expressions that cannot be resolved (a field read, a call
// result) are skipped: the rule trades soundness at those few sites for
// zero-noise findings everywhere else. A buffer region ends where a
// release or a return certainly ran; a release on an early-exit branch
// does not end it (see checkBufferRegions).
var BlockPath = &analysis.Analyzer{
	Name: "blockpath",
	Doc:  "may-block calls from scheduler-context callbacks or while a metadata buffer is held",
	AppliesTo: func(path string) bool {
		// The sim kernel implements the blocking primitives; cpu wraps
		// Resource.Use as its whole purpose. Everything else under the
		// determinism scope is fair game.
		return analysis.SimScope(path) &&
			path != analysis.ModulePath()+"/internal/sim" &&
			path != analysis.ModulePath()+"/internal/cpu"
	},
	Run: runBlockPath,
}

// schedulerCallbackArg maps a registration function (by FuncKey) to the
// index of its callback argument.
var schedulerCallbackArg = map[string]int{
	"ufsclust/internal/sim.Sim.After":                    1,
	"ufsclust/internal/sim.Sim.At":                       1,
	"ufsclust/internal/telemetry.Registry.Counter":       1,
	"ufsclust/internal/telemetry.Registry.Gauge":         1,
	"ufsclust/internal/telemetry.Registry.CounterSource": 0,
}

// completionFields are struct fields whose value runs in scheduler
// (interrupt-delivery) context.
var completionFields = map[string]map[string]bool{
	"ufsclust/internal/driver.Buf":   {"Iodone": true},
	"ufsclust/internal/disk.Request": {"Done": true},
}

func runBlockPath(pass *analysis.Pass) {
	prog := ProgramFor(pass)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkSchedulerRegistration(pass, prog, x)
			case *ast.CompositeLit:
				checkCompletionLit(pass, prog, x)
			case *ast.AssignStmt:
				checkCompletionAssign(pass, prog, x)
			case *ast.FuncDecl:
				if x.Body != nil {
					checkBufferRegions(pass, prog, x)
				}
			}
			return true
		})
	}
}

// staticCalleeKey returns the FuncKey of a call's statically resolved
// callee, or "".
func staticCalleeKey(pass *analysis.Pass, call *ast.CallExpr) string {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		if tf, ok := pass.Pkg.Info.Uses[f].(*types.Func); ok {
			return FuncKey(tf)
		}
	case *ast.SelectorExpr:
		if tf, ok := pass.Pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return FuncKey(tf)
		}
	}
	return ""
}

func checkSchedulerRegistration(pass *analysis.Pass, prog *Program, call *ast.CallExpr) {
	key := staticCalleeKey(pass, call)
	idx, ok := schedulerCallbackArg[key]
	if !ok || idx >= len(call.Args) {
		return
	}
	reportBlockingCallback(pass, prog, call.Args[idx], "callback registered via "+shortName(key))
}

func checkCompletionLit(pass *analysis.Pass, prog *Program, lit *ast.CompositeLit) {
	fields := completionFieldsOf(pass, pass.Pkg.Info.Types[lit].Type)
	if fields == nil {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && fields[key.Name] {
			reportBlockingCallback(pass, prog, kv.Value, key.Name+" completion callback")
		}
	}
}

func checkCompletionAssign(pass *analysis.Pass, prog *Program, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		sel, ok := unparen(l).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s, ok := pass.Pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			continue
		}
		fields := completionFieldsOf(pass, s.Recv())
		if fields != nil && fields[sel.Sel.Name] {
			reportBlockingCallback(pass, prog, as.Rhs[i], sel.Sel.Name+" completion callback")
		}
	}
}

// completionFieldsOf returns the watched field set when t (or *t) is a
// completion-carrying struct.
func completionFieldsOf(pass *analysis.Pass, t types.Type) map[string]bool {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return completionFields[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

func reportBlockingCallback(pass *analysis.Pass, prog *Program, e ast.Expr, what string) {
	for _, fn := range prog.ResolveValue(pass.Pkg, e) {
		if fn.MayBlock {
			pass.Reportf(e.Pos(), "%s runs in scheduler context but may block: %s", what, prog.BlockPath(fn))
			return
		}
	}
}

// bufferReleases are the Bcache/Fs methods that unlock a buffer passed
// to them.
var bufferReleases = map[string]bool{
	"Brelse":        true,
	"Bdwrite":       true,
	"Bwrite":        true,
	"BwriteOrdered": true,
	"metaWrite":     true,
}

// checkBufferRegions scans one function for getblk/Bread acquisitions
// and flags may-block calls made while the buffer is held. A call that
// takes the buffer is presumed to be operating on (or releasing) it; one
// that does not, and can park the process, holds a locked buffer across
// an unrelated wait.
//
// The hold ends only where a release certainly ran. A statement that
// ends it on every path that goes on past it — a release call mentioning
// the buffer, a return, or an if/else each of whose branches ends it —
// closes everything after it when its block also holds the acquire, and
// the rest of its own block otherwise. So a release on an early-exit
// branch does not end the hold of the code after the branch.
func checkBufferRegions(pass *analysis.Pass, prog *Program, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	type acquisition struct {
		obj types.Object
		pos token.Pos
	}
	var acquires []acquisition
	var blocks []*ast.BlockStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			blocks = append(blocks, x)
		case *ast.AssignStmt:
			if len(x.Rhs) != 1 {
				return true
			}
			call, ok := unparen(x.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			key := staticCalleeKey(pass, call)
			if key != "ufsclust/internal/ufs.Bcache.Bread" && key != "ufsclust/internal/ufs.Bcache.getblk" {
				return true
			}
			id, ok := x.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				acquires = append(acquires, acquisition{obj, call.End()})
			}
		}
		return true
	})

	contains := func(blk *ast.BlockStmt, at token.Pos) bool { return blk.Pos() <= at && at < blk.End() }
	for _, acq := range acquires {
		isRelease := func(e ast.Expr) bool {
			call, ok := unparen(e).(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			return ok && bufferReleases[sel.Sel.Name] && mentionsObject(info, call, acq.obj)
		}
		// ends reports whether every path that runs on past st has let
		// the buffer go: st releases it or returns, or is an if/else each
		// of whose branches ends it.
		var ends func(st ast.Stmt) bool
		ends = func(st ast.Stmt) bool {
			switch x := st.(type) {
			case *ast.ReturnStmt:
				return true
			case *ast.ExprStmt:
				return isRelease(x.X)
			case *ast.AssignStmt:
				return len(x.Rhs) == 1 && isRelease(x.Rhs[0])
			case *ast.BlockStmt:
				return slices.ContainsFunc(x.List, ends)
			case *ast.IfStmt:
				return x.Else != nil && ends(x.Body) && ends(x.Else)
			}
			return false
		}
		// A closer is the end of a statement that ends the hold, and the
		// block it sits in.
		type closer struct {
			pos   token.Pos
			block *ast.BlockStmt
		}
		var closers []closer
		for _, blk := range blocks {
			for _, st := range blk.List {
				if st.Pos() > acq.pos && ends(st) {
					closers = append(closers, closer{st.End(), blk})
				}
			}
		}
		held := func(at token.Pos) bool {
			for _, c := range closers {
				if c.pos <= at && (contains(c.block, acq.pos) || contains(c.block, at)) {
					return false
				}
			}
			return true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() <= acq.pos {
				return true
			}
			if mentionsObject(info, call, acq.obj) || !held(call.Pos()) {
				return true
			}
			if c := prog.CallAt(call.Lparen); c != nil {
				for _, fn := range c.Targets {
					if fn.MayBlock {
						pass.Reportf(call.Pos(), "call may block while buffer %q is held: %s",
							acq.obj.Name(), prog.BlockPath(fn))
						break
					}
				}
			}
			return true
		})
	}
}

// mentionsObject reports whether the expression tree references obj.
func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
