// Package simflow layers interprocedural analysis on the repository's
// stdlib-only analysis framework. It builds a module-wide call graph
// over go/types callees — static calls resolved exactly, interface
// calls by class-hierarchy analysis over the module's named types,
// function-value calls conservatively by signature against every
// address-taken function — and computes per-function summary facts
// (today: "may this function block the calling process?") to a fixed
// point over that graph.
//
// Three analyzers ride on the graph: blockpath (may-block calls from
// scheduler-context callbacks and while holding a metadata buffer),
// buspure (telemetry bus subscribers must stay pure), and timeflow
// (flow-sensitive unit taint into sim.Time conversions). They register
// themselves with the framework from init, so importing this package
// for side effects is what arms the rules in cmd/simlint.
package simflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ufsclust/internal/analysis"
)

// A Func is one node of the call graph: a declared function or method,
// a function literal, or an externally defined function the module
// calls but whose source is not loaded (standard library, or module
// packages imported only for types by a fixture run).
type Func struct {
	Obj  *types.Func       // nil for function literals
	Decl *ast.FuncDecl     // non-nil when declared with source
	Lit  *ast.FuncLit      // non-nil for literals
	Pkg  *analysis.Package // nil for external functions
	Name string            // stable display name

	Calls     []*Call
	AddrTaken bool

	// MayBlock is the transitive fact: this function can park the
	// calling process (reaches Proc.Sleep/Block/Yield, Semaphore.P, or
	// Resource.Acquire/Use). via records the first witnessing call for
	// diagnostic paths; nil on the base primitives themselves.
	MayBlock bool
	via      *Call

	id int
}

// A Call is one call site inside a Func, with every target it may
// reach. Targets are sorted by node id, so traversal order — and every
// diagnostic derived from it — is deterministic.
type Call struct {
	Pos     token.Pos
	Targets []*Func
}

// A Program is the module-wide call graph plus the fact tables the
// analyzers share. Build one per analysis run via ProgramFor.
type Program struct {
	Module *analysis.Module
	Funcs  []*Func // creation order: declared (by package, file, position), then literals, then externals

	byObj      map[*types.Func]*Func
	byLit      map[*ast.FuncLit]*Func
	bySig      map[string][]*Func       // address-taken nodes keyed by signature
	varFuncs   map[types.Object][]*Func // func-typed variables -> every function assigned to them
	callsAt    map[token.Pos]*Call      // resolved call sites keyed by Lparen
	namedTypes []*types.Named           // module named types, for interface dispatch
	returns    map[*types.Func]taint    // timeflow result summaries
}

// CallAt returns the resolved call at an Lparen position, or nil.
func (pr *Program) CallAt(pos token.Pos) *Call { return pr.callsAt[pos] }

// ProgramFor returns the call graph for the pass's module, building it
// on first use and sharing it across analyzers and packages.
func ProgramFor(pass *analysis.Pass) *Program {
	return pass.Module.Fact("simflow.program", func(m *analysis.Module) any {
		return buildProgram(m)
	}).(*Program)
}

// FuncOf returns the graph node for a declared function or method, or
// nil if obj is unknown.
func (pr *Program) FuncOf(obj *types.Func) *Func { return pr.byObj[obj] }

// blockPrimitives are the kernel operations that park a process. They
// are matched by key (package.Receiver.Method) rather than node
// identity so they hold whether the sim package is loaded from source
// or imported only for types.
var blockPrimitives = map[string]bool{
	"ufsclust/internal/sim.Proc.Sleep":       true,
	"ufsclust/internal/sim.Proc.Block":       true,
	"ufsclust/internal/sim.Proc.Yield":       true,
	"ufsclust/internal/sim.Semaphore.P":      true,
	"ufsclust/internal/sim.Resource.Acquire": true,
	"ufsclust/internal/sim.Resource.Use":     true,
}

// externBlock summarizes well-known module entry points that block, for
// runs (fixture tests) where the callee's source is not loaded and the
// fixed point cannot discover the fact itself.
var externBlock = map[string]bool{
	"ufsclust/internal/ufs.Bcache.Bread":  true,
	"ufsclust/internal/ufs.Bcache.Bwrite": true,
	"ufsclust/internal/ufs.Bcache.Flush":  true,
	"ufsclust/internal/vm.VM.Hold":        true,
	"ufsclust/internal/vm.VM.Evict":       true,
	"ufsclust/internal/vm.VM.Alloc":       true,
	"ufsclust/internal/driver.Driver.IO":  true,
	"ufsclust/internal/disk.Disk.IO":      true,
	"ufsclust/internal/cpu.Model.Use":     true,
}

// FuncKey renders a *types.Func as package.Receiver.Method (pointer
// receivers are stripped) or package.Function — the form the fact
// tables above are keyed by.
func FuncKey(tf *types.Func) string {
	sig, _ := tf.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + tf.Name()
		}
	}
	if tf.Pkg() != nil {
		return tf.Pkg().Path() + "." + tf.Name()
	}
	return tf.Name()
}

// shortName trims the module prefix from a node name for diagnostics.
func shortName(name string) string {
	return strings.ReplaceAll(name, analysis.ModulePath()+"/internal/", "")
}

// BlockPath renders the witness chain from f down to the blocking
// primitive, e.g. "ufs.Fs.Write -> ufs.Bcache.Bread -> sim.Proc.Block".
func (pr *Program) BlockPath(f *Func) string {
	var parts []string
	seen := map[*Func]bool{}
	for f != nil && !seen[f] {
		seen[f] = true
		parts = append(parts, shortName(f.Name))
		if f.via == nil || len(f.via.Targets) == 0 {
			break
		}
		next := (*Func)(nil)
		for _, t := range f.via.Targets {
			if t.MayBlock {
				next = t
				break
			}
		}
		f = next
	}
	return strings.Join(parts, " -> ")
}

type builder struct {
	prog    *Program
	nextID  int
	callPos map[ast.Expr]bool // expressions in call-operator position
	selSels map[*ast.Ident]bool

	pendingTaken   []pendingTaken
	pendingVarLits []pendingVarLit
	pendingVarRefs []pendingVarRef
}

type pendingTaken struct {
	tf  *types.Func
	typ types.Type
}

func buildProgram(m *analysis.Module) *Program {
	pr := &Program{
		Module:   m,
		byObj:    make(map[*types.Func]*Func),
		byLit:    make(map[*ast.FuncLit]*Func),
		bySig:    make(map[string][]*Func),
		varFuncs: make(map[types.Object][]*Func),
		callsAt:  make(map[token.Pos]*Call),
	}
	b := &builder{prog: pr, callPos: make(map[ast.Expr]bool), selSels: make(map[*ast.Ident]bool)}

	// Pass 0: named types of the whole module, for interface dispatch.
	// Scope names come back sorted, so the candidate order is stable.
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				pr.namedTypes = append(pr.namedTypes, named)
			}
		}
	}

	// Pass 1: create nodes for every declared function and literal, mark
	// address-taken references, and index func-typed variable bindings.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					b.scanValueDecls(pkg, decl)
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := b.newFunc(obj, fd, nil, pkg, obj.FullName())
				if fd.Body != nil {
					b.discover(pkg, fn, fd.Body)
				}
			}
		}
	}

	b.flushPending()

	// Pass 2: resolve every call site. All address-taken candidates are
	// known now, so dynamic and interface calls see the full picture.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
						b.resolve(pkg, pr.byObj[obj], fd.Body)
					}
				} else if !ok {
					if gd, isGen := decl.(*ast.GenDecl); isGen {
						b.resolve(pkg, nil, gd)
					}
				}
			}
		}
	}

	pr.computeMayBlock()
	pr.computeReturnTaints()
	return pr
}

func (b *builder) newFunc(obj *types.Func, decl *ast.FuncDecl, lit *ast.FuncLit, pkg *analysis.Package, name string) *Func {
	fn := &Func{Obj: obj, Decl: decl, Lit: lit, Pkg: pkg, Name: name, id: b.nextID}
	b.nextID++
	b.prog.Funcs = append(b.prog.Funcs, fn)
	if obj != nil {
		b.prog.byObj[obj] = fn
	}
	if lit != nil {
		b.prog.byLit[lit] = fn
	}
	return fn
}

// external returns (creating on demand) the node for a function whose
// source is outside the loaded module.
func (b *builder) external(obj *types.Func) *Func {
	if fn, ok := b.prog.byObj[obj]; ok {
		return fn
	}
	return b.newFunc(obj, nil, nil, nil, obj.FullName())
}

// scanValueDecls walks package-level non-function declarations so that
// literals in var initializers (var hook = func() {...}) become nodes.
func (b *builder) scanValueDecls(pkg *analysis.Package, decl ast.Decl) {
	if gd, ok := decl.(*ast.GenDecl); ok {
		b.discover(pkg, nil, gd)
	}
}

// discover walks n creating literal nodes, recording call-position
// expressions, address-taken functions, and func-typed variable
// bindings. parent names nested literals; nil means a package-level
// initializer.
func (b *builder) discover(pkg *analysis.Package, parent *Func, n ast.Node) {
	litIndex := 0
	parentName := pkg.Path + ".init"
	if parent != nil {
		parentName = parent.Name
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			name := parentName + "$" + itoa(litIndex)
			litIndex++
			lit := b.newFunc(nil, nil, x, pkg, name)
			lit.AddrTaken = true
			b.indexBySig(pkg, lit, x)
			b.discover(pkg, lit, x.Body)
			return false
		case *ast.CallExpr:
			b.callPos[unparen(x.Fun)] = true
		case *ast.SelectorExpr:
			b.selSels[x.Sel] = true
			if !b.callPos[x] {
				if tf, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
					if tv, hasType := pkg.Info.Types[x]; hasType && tv.Type != nil {
						b.pendingTaken = append(b.pendingTaken, pendingTaken{tf, tv.Type})
					}
				}
			}
		case *ast.Ident:
			if !b.callPos[x] && !b.selSels[x] {
				if tf, ok := pkg.Info.Uses[x].(*types.Func); ok {
					if tv, hasType := pkg.Info.Types[x]; hasType && tv.Type != nil {
						b.pendingTaken = append(b.pendingTaken, pendingTaken{tf, tv.Type})
					}
				}
			}
		case *ast.AssignStmt:
			b.recordVarFuncs(pkg, x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			idents := make([]ast.Expr, len(x.Names))
			for i, id := range x.Names {
				idents[i] = id
			}
			b.recordVarFuncs(pkg, idents, x.Values)
		}
		return true
	})
}

// recordVarFuncs indexes `v := <func literal or reference>` bindings so
// registration sites passing a variable (fire := func(){...}; After(d,
// fire)) still resolve.
func (b *builder) recordVarFuncs(pkg *analysis.Package, lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch r := unparen(rhs[i]).(type) {
		case *ast.FuncLit:
			// The literal node may not exist yet (Inspect visits the
			// assignment before the literal); defer to resolution time
			// by keying on the literal.
			b.pendingVarLits = append(b.pendingVarLits, pendingVarLit{obj, r})
		case *ast.Ident, *ast.SelectorExpr:
			if tf := referencedFunc(pkg, r); tf != nil {
				b.pendingVarRefs = append(b.pendingVarRefs, pendingVarRef{obj, tf})
			}
		}
	}
}

type pendingVarLit struct {
	obj types.Object
	lit *ast.FuncLit
}

type pendingVarRef struct {
	obj types.Object
	tf  *types.Func
}

// referencedFunc returns the *types.Func an identifier or selector
// denotes, or nil.
func referencedFunc(pkg *analysis.Package, e ast.Expr) *types.Func {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		tf, _ := pkg.Info.Uses[x].(*types.Func)
		return tf
	case *ast.SelectorExpr:
		tf, _ := pkg.Info.Uses[x.Sel].(*types.Func)
		return tf
	}
	return nil
}

// indexBySig registers fn as an address-taken candidate under the type
// of the taking expression (for methods that is the receiver-stripped
// method-value signature).
func (b *builder) indexBySig(pkg *analysis.Package, fn *Func, e ast.Expr) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
		return
	}
	key := typeKey(tv.Type)
	for _, existing := range b.prog.bySig[key] {
		if existing == fn {
			return
		}
	}
	b.prog.bySig[key] = append(b.prog.bySig[key], fn)
}

func typeKey(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
