// Command coconut-vet is the multichecker driver for the internal/vet
// analyzer suite: the type-aware replacement for the retired
// lint-walltime.sh / lint-directio.sh / lint-telemetry.sh shell lints,
// plus the determinism/safety analyzers grep could not express
// (maporder, actorspawn, parklock, globalrand, goroutineid).
//
// Usage:
//
//	go run ./cmd/coconut-vet ./...            # gate the whole module
//	go run ./cmd/coconut-vet -summary ./...   # per-analyzer counts
//	go run ./cmd/coconut-vet -list            # analyzers + protected invariants
//	go run ./cmd/coconut-vet -dir DIR         # fixture mode: analyze one
//	                                          # directory outside go list
//	                                          # (self-test / testdata trees)
//
// Findings are suppressed by a `//vet:allow <analyzer> <reason>` comment
// on the finding's line or the line above; suppressed findings are
// excluded from failure but counted in -summary, and a stale suppression
// (no matching finding) is itself an error. Exit status is nonzero on
// any unsuppressed finding, stale suppression, or malformed allow
// comment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/coconut-bench/coconut/internal/vet"
)

func main() {
	var (
		summary   = flag.Bool("summary", false, "print per-analyzer finding/suppression counts")
		list      = flag.Bool("list", false, "list the analyzers and the invariants they protect")
		dir       = flag.String("dir", "", "fixture mode: analyze one directory of Go files (no package policy)")
		asPath    = flag.String("as", "fixture", "fixture mode: import path the -dir package pretends to have")
		only      = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		nodefault = flag.Bool("nopolicy", false, "disable the default exemption policy (run everything everywhere)")
	)
	flag.Parse()

	if *list {
		for _, a := range vet.Analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := vet.Analyzers
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := vet.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "coconut-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "coconut-vet: %v\n", err)
		os.Exit(2)
	}

	var pkgs []*vet.Package
	policy := vet.DefaultPolicy()
	if *nodefault {
		policy = nil
	}
	if *dir != "" {
		pkg, err := vet.LoadDir(root, *dir, *asPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coconut-vet: %v\n", err)
			os.Exit(2)
		}
		pkgs = []*vet.Package{pkg}
		policy = nil // fixture trees carry no module import path to gate on
	} else {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		pkgs, err = vet.LoadPatterns(root, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coconut-vet: %v\n", err)
			os.Exit(2)
		}
	}

	res := vet.RunAnalyzers(pkgs, analyzers, policy)

	for _, f := range res.Findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", relPos(root, f.Pos.String()), f.Analyzer, f.Message)
	}
	for _, s := range res.Stale {
		fmt.Fprintf(os.Stderr, "%s: stale //vet:allow %s (%s): no matching finding; delete the suppression\n",
			relPos(root, s.Pos.String()), s.Analyzer, s.Reason)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "%s\n", e)
	}

	if *summary {
		counts := res.Counts()
		total, suppressed := 0, 0
		for _, a := range analyzers {
			c := counts[a.Name]
			fmt.Printf("%-11s %3d findings  %3d suppressed\n", a.Name, c[0], c[1])
			total += c[0]
			suppressed += c[1]
		}
		fmt.Printf("%-11s %3d findings  %3d suppressed  (%d stale allows, %d errors)\n",
			"total", total, suppressed, len(res.Stale), len(res.Errors))
	}

	if res.Failed() {
		os.Exit(1)
	}
	fmt.Println("coconut-vet: ok")
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// relPos trims the module root from absolute positions for stable,
// readable output.
func relPos(root, pos string) string {
	if strings.HasPrefix(pos, root+string(filepath.Separator)) {
		return pos[len(root)+1:]
	}
	return pos
}
