package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathLock enforces the PR 4 lock-free serving contract: functions
// reachable from serve.Decide and from the Probabilistic dispatcher's
// pick methods must not acquire mutexes, touch channels, launch
// goroutines, or allocate (map/slice construction, append, heap
// composite literals, string building, interface boxing). Those are
// exactly the operations the lock-free redesign removed from the
// admission path, and any one of them reintroduces either contention or
// a GC term into the tail latency the load harness pins.
//
// Reachability comes from the shared interprocedural engine
// (callgraph.go): the roots are serve.Decide and DecideBatch, the
// Probabilistic and PowerOfD pick methods, and any function whose doc
// comment carries //bladelint:hotpath — in ANY loaded package.
// Cross-package calls are followed into the callee's source, and calls
// through interfaces are expanded to every implementation the loaded
// set provides, so a mutexed DepthReader in one package poisoning a
// hot pick in another is caught even though the caller only sees the
// interface. Each finding is reported in the pass for the package that
// defines the offending function, so //bladelint:allow directives keep
// their local scope: serve's lockedRand, the single seeded generator
// behind Config.DeterministicRNG, stays annotated with its
// justification where it is defined.
var HotPathLock = &Analyzer{
	Name:      "hotpathlock",
	Directive: "lock",
	Doc:       "no locks, channels, goroutines, or allocation in functions reachable from the serving hot path",
	Run:       runHotPathLock,
}

func runHotPathLock(pass *Pass) {
	// The engine's memoized whole-program reachability: computed once
	// per run, shared with allocfree's escape-site mapping. Findings are
	// reported only for functions this pass's package defines — the
	// other packages get their own passes, with their own allow
	// directives in scope.
	for key, path := range pass.Prog.HotReachable() {
		if n := pass.Prog.Node(key); n != nil && n.Pkg == pass.Pkg {
			checkHotPathBody(pass, n.Decl, path)
		}
	}
}

// checkHotPathBody flags every forbidden operation in one hot function.
func checkHotPathBody(pass *Pass, fd *ast.FuncDecl, path string) {
	report := func(pos token.Pos, what string) {
		pass.reportChain(pos, path, "%s on the serving hot path (%s); restructure, or annotate //bladelint:allow lock with the justification", what, path)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, report)
		case *ast.SendStmt:
			report(n.Arrow, "channel send")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				report(n.OpPos, "channel receive")
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.OpPos, "heap allocation (&composite literal)")
				}
			}
		case *ast.SelectStmt:
			report(n.Select, "select statement")
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.For, "range over a channel")
				}
			}
		case *ast.GoStmt:
			report(n.Go, "goroutine launch")
		case *ast.CompositeLit:
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal allocation")
				case *types.Slice:
					report(n.Pos(), "slice literal allocation")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				tv, ok := pass.Pkg.Info.Types[ast.Expr(n)]
				if ok && tv.Value == nil && isStringType(tv.Type) {
					report(n.OpPos, "non-constant string concatenation")
				}
			}
		}
		return true
	})
}

// checkHotCall flags the call-shaped forbidden operations: mutex
// acquisition, allocating builtins, allocating conversions, and
// interface boxing of arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	// Builtins: allocation (make/new/append) and channel close.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				report(call.Pos(), b.Name()+" allocation")
			case "close":
				report(call.Pos(), "channel close")
			}
			return
		}
	}

	// Conversions between strings and byte/rune slices copy.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := pass.TypeOf(call.Args[0])
		if src != nil {
			switch dst.(type) {
			case *types.Slice:
				if isStringType(src) {
					report(call.Pos(), "string-to-slice conversion (allocates)")
				}
			default:
				if isStringType(tv.Type) {
					if _, ok := src.Underlying().(*types.Slice); ok {
						report(call.Pos(), "slice-to-string conversion (allocates)")
					}
				}
			}
		}
		return
	}

	fn := pass.CalleeFunc(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}

	// Mutex methods.
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
				(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
				report(call.Pos(), "sync."+obj.Name()+"."+fn.Name())
			}
		}
	}

	// Interface boxing: a concrete argument passed to an interface
	// parameter escapes to the heap (fmt.Sprintf("%d", n) style).
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a spread slice is passed as-is
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "interface boxing of an argument (type "+at.String()+")")
	}
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
