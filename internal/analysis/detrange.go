package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"snappif/internal/analysis/dataflow"
)

// detrangePackages are the deterministic-engine packages (module-relative
// import paths): everything whose output feeds the byte-identical
// serial/parallel and optimized/reference determinism oracles. A package
// outside the list can opt in with a `//snapvet:deterministic` file
// comment (the analyzer's own testdata does).
var detrangePackages = map[string]bool{
	"internal/sim":     true,
	"internal/bitset":  true,
	"internal/core":    true,
	"internal/engine":  true,
	"internal/event":   true,
	"internal/exp":     true,
	"internal/explore": true,
	"internal/flat":    true,
	"internal/graph":   true,
	"internal/trace":   true,
	"internal/obs":     true,
	"internal/hunt":    true,
	"internal/service": true,
}

// detrange enforces the engine's determinism invariant at its three
// classic leak points: map iteration order, wall-clock reads, and the
// process-global math/rand source. Same seed, same schedule, same bytes —
// the serial/parallel executor equivalence and the trace replay oracle
// both depend on it.
var detrange = &Analyzer{
	Name: "detrange",
	Doc:  "no map range, clock reads, or global randomness in the deterministic engine packages",
	Run:  runDetrange,
}

// detrangeTarget reports whether the module-relative package path rel is
// one of the deterministic engine packages or nested inside one. The
// cmd/ tools are included: their artifact output feeds diffable logs, so
// any intentional wall-clock read there carries an //snapvet:ok note.
func detrangeTarget(rel string) bool {
	if detrangePackages[rel] {
		return true
	}
	if strings.HasPrefix(rel, "cmd/") {
		return true
	}
	for dir := range detrangePackages {
		if strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

func runDetrange(pass *Pass) {
	ann := pass.ann
	for _, pkg := range pass.Prog.Packages {
		if !detrangeTarget(pass.Prog.RelPath(pkg.Path)) && !ann.deterministic[pkg.Path] {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.RangeStmt:
					t := pkg.Info.TypeOf(x.X)
					if t == nil {
						return true
					}
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Report(x.Pos(), "range over a map iterates in nondeterministic order inside a deterministic engine package; iterate a sorted key slice or annotate //snapvet:ok <reason>")
					}
				case *ast.CallExpr:
					callee := dataflow.CalleeOf(pkg.Info, x)
					if callee == nil {
						return true
					}
					switch dataflow.PkgPath(callee) {
					case "time":
						switch callee.Name() {
						case "Now", "Since", "Until":
							pass.Report(x.Pos(), "time.%s reads the wall clock inside a deterministic engine package; derive timing outside the engine or annotate //snapvet:ok <reason>", callee.Name())
						}
					case "math/rand", "math/rand/v2":
						if dataflow.IsGlobalRand(callee) {
							pass.Report(x.Pos(), "package-level %s.%s draws from the process-global source; thread a seeded *rand.Rand instead", dataflow.PkgPath(callee), callee.Name())
						}
					}
				}
				return true
			})
		}
	}
}
