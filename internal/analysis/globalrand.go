package analysis

import (
	"go/ast"
	"go/token"
)

// seededRandFuncs are the math/rand names that construct explicitly
// seeded generators (or name types); everything else on the package is
// the process-global source, which breaks same-seed replay.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"NewPCG":    true, // math/rand/v2
	"Rand":      true,
	"Source":    true,
	"Zipf":      true,
	"PCG":       true,
}

// NewGlobalRand builds the globalrand analyzer: inside simulation
// packages, every random draw must come from a locally constructed,
// explicitly seeded source. It flags
//
//   - math/rand (and v2) top-level functions — they draw from the
//     process-global source, whose sequence depends on every other draw
//     in the process (and on Go version);
//   - rand.Seed — seeding the global source advertises exactly the
//     pattern the repo bans;
//   - time-seeded sources — rand.NewSource(time.Now().UnixNano()) and
//     friends are seeded, but from the wall clock, so two runs of the
//     same scenario never replay. The seed must come from configuration.
//
// The time-seeded case carries a -fix rewrite substituting the constant
// seed 1 for the wall-clock expression: deterministic by construction,
// and a marker a human immediately sees and threads a real seed through.
func NewGlobalRand(simPrefixes ...string) *Analyzer {
	return &Analyzer{
		Name: "globalrand",
		Doc:  "forbid the global math/rand source and time-seeded generators in simulation packages",
		Run: func(pass *Pass) {
			if !pathHasPrefix(pass.Path, simPrefixes) {
				return
			}
			for _, file := range pass.Files {
				runGlobalRand(pass, file)
			}
		},
	}
}

func runGlobalRand(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			pkgPath, fn := pass.CalleePkgFunc(file, e)
			if !isRandPkg(pkgPath) {
				return true
			}
			switch {
			case fn == "Seed":
				pass.Reportf(e.Pos(), Warning,
					"rand.Seed reseeds the process-global source: simulation packages must construct their own rand.New(rand.NewSource(seed)) from configuration")
				return false
			case fn == "New" || fn == "NewSource" || fn == "NewPCG" || fn == "NewChaCha8":
				for _, arg := range e.Args {
					// rand.New(rand.NewSource(...)): the inner constructor
					// is visited on its own; reporting it here too would
					// duplicate the finding and overlap the fixes.
					if inner, ok := arg.(*ast.CallExpr); ok {
						if p, _ := pass.CalleePkgFunc(file, inner); isRandPkg(p) {
							continue
						}
					}
					if pos, call := timeDerived(pass, file, arg); pos != token.NoPos {
						pass.ReportFixf(arg.Pos(), Warning,
							[]Edit{{Pos: arg.Pos(), End: arg.End(), NewText: "1"}},
							"rand source seeded from the wall clock (%s): a time-derived seed makes every run unique and unreproducible; thread the scenario seed from configuration", call)
					}
				}
				return true
			case !seededRandFuncs[fn]:
				pass.Reportf(e.Pos(), Warning,
					"rand.%s draws from the process-global source: its sequence depends on every other draw in the process; use an explicitly seeded *rand.Rand", fn)
				return false
			}
		}
		return true
	})
}

// isRandPkg matches both math/rand generations.
func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// timeDerived reports the position and rendering of the first package
// time selector inside expr (e.g. "time.Now"), or NoPos when the
// expression does not read the clock.
func timeDerived(pass *Pass, file *ast.File, expr ast.Expr) (token.Pos, string) {
	var pos token.Pos
	var name string
	ast.Inspect(expr, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pass.PkgName(file, base) == "time" {
			pos, name = sel.Pos(), "time."+sel.Sel.Name
			return false
		}
		return true
	})
	return pos, name
}
