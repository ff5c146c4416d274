package vet

import (
	"go/ast"
)

// GoroutineID keeps caller identity explicit. The AutoVirtual scheduler
// hands its token to exactly one actor, and every parking primitive takes
// that actor's clock.Handle, so nothing needs to recover "which goroutine
// is calling" at run time. The clock once did, by parsing a goroutine
// stack dump on every blocking call, and that lookup cost most of the
// simulator's CPU. The analyzer flags two things:
//
//   - the Stack functions of runtime and runtime/debug, outside the
//     diagnostics allow-list (driver policy): stack dumps are for crash
//     reports, never for identity;
//   - the handle-less Clock.Sleep on a clock value, which panics under
//     AutoVirtual. This check skips internal/clock itself, whose
//     primitives implement the Real and plain Virtual paths with it.
//
// Await has no handle-less form, so the compiler already enforces it.
var GoroutineID = &Analyzer{
	Name: "goroutineid",
	Doc: "flags runtime and runtime/debug Stack dumps outside diagnostics and handle-less Clock.Sleep; " +
		"actors pass their clock.Handle as the caller's identity",
	Run: runGoroutineID,
}

func runGoroutineID(pass *Pass) (interface{}, error) {
	info := pass.TypesInfo
	clockImpl := isInternalPkg(pass.Pkg.Path(), "internal/clock")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, rt := pkgFuncCall(info, call, "runtime", "Stack")
			_, dbg := pkgFuncCall(info, call, "runtime/debug", "Stack")
			if rt || dbg {
				pass.Reportf(call.Pos(),
					"stack dump outside diagnostics: never derive goroutine identity from a stack dump; pass the caller's clock.Handle")
				return true
			}
			if clockImpl {
				return true
			}
			if fn, named := methodCall(info, call); fn != nil && fn.Name() == "Sleep" &&
				fromInternalPkg(named, "internal/clock") && named.Obj().Name() != "Handle" {
				pass.Reportf(call.Pos(),
					"handle-less %s.Sleep panics under AutoVirtual; call Sleep on the caller's clock.Handle", named.Obj().Name())
			}
			return true
		})
	}
	return nil, nil
}
