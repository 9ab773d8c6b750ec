package lint

import (
	"go/ast"
	"go/token"
)

// KahanCheck enforces compensated summation in the numerical packages:
// a plain `sum += x` (or `sum -= x`, `sum = sum + x`, `sum = x + sum`)
// that accumulates a float across loop iterations in internal/core or
// internal/plan loses low-order bits once fleets reach thousands of
// stations — exactly the scale the class evaluator targets — and those
// bits decide outer-bisection comparisons, so naive accumulation breaks
// the clustered/unclustered bit-identity contract (DESIGN §14). Station- and
// class-indexed totals must go through numeric.KahanSum. An
// accumulation that provably doesn't need compensation (bounded trip
// count, exact values) carries a //bladelint:allow kahancheck
// annotation with its one-line justification.
//
// The check is scoped to loop-carried accumulators: the variable must
// be declared outside the innermost loop doing the accumulation.
// A float updated and re-declared within one iteration is ordinary
// arithmetic, not a running sum, and stays out of scope.
var KahanCheck = &Analyzer{
	Name:      "kahancheck",
	Directive: "kahancheck",
	Doc:       "loop-carried float accumulation in core/plan must use numeric.KahanSum",
	Run:       runKahanCheck,
}

// kahanCheckPackages are the package names in scope: the optimizer and
// the planning layer, whose sums run over station- or class-indexed
// slices.
var kahanCheckPackages = map[string]bool{
	"core": true,
	"plan": true,
}

func runKahanCheck(pass *Pass) {
	if !kahanCheckPackages[pass.PkgName()] {
		return
	}
	// Function declarations come from the engine's per-package index
	// (test files are already excluded there); package-level var
	// initializers are walked separately so a func literal bound at
	// package scope keeps its pre-engine coverage.
	for _, n := range pass.Prog.FuncsOf(pass.Pkg) {
		checkKahanBody(pass, n.Decl.Body)
	}
	for _, f := range pass.Files() {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				checkKahanBody(pass, gd)
			}
		}
	}
}

// checkKahanBody flags loop-carried float accumulations under one AST
// subtree (a function body, or a package-level declaration holding
// func literals).
func checkKahanBody(pass *Pass, root ast.Node) {
	// Collect every loop body; the innermost body containing an
	// accumulation decides whether the accumulator is loop-carried.
	var bodies []*ast.BlockStmt
	ast.Inspect(root, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			bodies = append(bodies, l.Body)
		case *ast.RangeStmt:
			bodies = append(bodies, l.Body)
		}
		return true
	})
	if len(bodies) == 0 {
		return
	}
	innermost := func(pos token.Pos) *ast.BlockStmt {
		var best *ast.BlockStmt
		for _, b := range bodies {
			if b.Pos() <= pos && pos < b.End() {
				if best == nil || b.Pos() > best.Pos() {
					best = b
				}
			}
		}
		return best
	}
	ast.Inspect(root, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		id := accumulatorIdent(pass, assign)
		if id == nil || !isFloat(pass.TypeOf(id)) {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		body := innermost(assign.Pos())
		if body == nil {
			return true // not inside a loop
		}
		if obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
			return true // declared in the same iteration: not loop-carried
		}
		pass.Reportf(assign.TokPos,
			"loop-carried float accumulation into %s: use numeric.KahanSum or annotate //bladelint:allow kahancheck", id.Name)
		return true
	})
}

// accumulatorIdent returns the identifier a self-accumulating
// assignment updates — `x += e`, `x -= e`, `x = x + e`, `x = e + x`,
// `x = x - e` — or nil when assign is not of that shape.
func accumulatorIdent(pass *Pass, assign *ast.AssignStmt) *ast.Ident {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	id, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return id
	case token.ASSIGN:
		bin, ok := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return nil
		}
		sameObj := func(e ast.Expr) bool {
			oid, ok := ast.Unparen(e).(*ast.Ident)
			return ok && pass.ObjectOf(oid) == obj
		}
		switch bin.Op {
		case token.ADD:
			if sameObj(bin.X) || sameObj(bin.Y) {
				return id
			}
		case token.SUB:
			if sameObj(bin.X) { // x = x - e; (x = e - x is not accumulation)
				return id
			}
		}
	}
	return nil
}
