package main

// The analyzer registry. Each analyzer is independent, stdlib-only, and
// returns its findings as position-prefixed strings; main runs the selected
// set and fails on any finding. `-list` prints the registry so check.sh can
// assert the expected analyzers are present.

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// analyzer is one registered check over the repository tree.
type analyzer struct {
	name string
	doc  string
	run  func(root string) []string
}

// analyzers is the registry, in execution order. Names are stable: check.sh
// and -only/-skip select by them.
var analyzers = []analyzer{
	{
		name: "uselist",
		doc:  "use-list mutations outside ir/value.go+ir/func.go (bypass sharedUseMu)",
		run: func(root string) []string {
			return lintUseLists(filepath.Join(root, "internal", "ir"))
		},
	},
	{
		name: "poolpair",
		doc:  "sync.Pool buffers neither released nor handed off",
		run: func(root string) []string {
			var bad []string
			for _, dir := range []string{"align", "linearize", "encode", "core", "wire"} {
				bad = append(bad, lintPools(filepath.Join(root, "internal", dir))...)
			}
			return bad
		},
	},
	{
		name: "maprange",
		doc:  "map iteration feeding ordered output (print/append) without a sort",
		run: func(root string) []string {
			var bad []string
			for _, dir := range lintableDirs(root) {
				bad = append(bad, lintMapRange(dir)...)
			}
			return bad
		},
	},
	{
		name: "walltime",
		doc:  "wall-clock reads or global math/rand in deterministic packages",
		run: func(root string) []string {
			var bad []string
			for _, dir := range purePackages {
				bad = append(bad, lintWallTime(filepath.Join(root, "internal", dir))...)
			}
			fset := token.NewFileSet()
			for _, file := range pureFiles {
				bad = append(bad, lintWallTimeFile(fset, filepath.Join(root, filepath.FromSlash(file)))...)
			}
			for _, dir := range noRandDirs {
				bad = append(bad, lintNoRand(root, dir)...)
			}
			return bad
		},
	},
	{
		name: "goloopcapture",
		doc:  "goroutine closures capturing pooled buffers or per-iteration reassigned variables",
		run: func(root string) []string {
			var bad []string
			for _, dir := range lintableDirs(root) {
				bad = append(bad, lintGoCapture(dir)...)
			}
			return bad
		},
	},
	{
		name: "testdeterminism",
		doc:  "tests drawing unseeded randomness (quick.Check without Config.Rand, global math/rand)",
		run: func(root string) []string {
			var bad []string
			for _, dir := range append([]string{root}, lintableDirs(root)...) {
				bad = append(bad, lintTestDeterminism(dir)...)
			}
			return bad
		},
	},
}

// lintableDirs enumerates every package directory the whole-tree analyzers
// walk: all of internal/, the cmd tools and the scripts.
func lintableDirs(root string) []string {
	var dirs []string
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(root, parent, e.Name()))
			}
		}
	}
	dirs = append(dirs, filepath.Join(root, "scripts", "lint"))
	sort.Strings(dirs)
	return dirs
}

func main() {
	var (
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		skip = flag.String("skip", "", "comma-separated analyzer names to skip")
		list = flag.Bool("list", false, "list registered analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.name, a.doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	selected, err := selectAnalyzers(analyzers, *only, *skip)
	if err != nil {
		fatal(err)
	}

	var bad []string
	for _, a := range selected {
		findings := a.run(root)
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s [%s]\n", f, a.name)
		}
		bad = append(bad, findings...)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d violation(s)\n", len(bad))
		os.Exit(1)
	}
	names := make([]string, len(selected))
	for i, a := range selected {
		names[i] = a.name
	}
	fmt.Printf("lint: ok (%s)\n", strings.Join(names, ", "))
}

// selectAnalyzers filters the registry by the -only and -skip flag values,
// rejecting unknown names so typos fail loudly instead of silently passing.
func selectAnalyzers(all []analyzer, only, skip string) ([]analyzer, error) {
	known := map[string]bool{}
	for _, a := range all {
		known[a.name] = true
	}
	parse := func(csv string) (map[string]bool, error) {
		set := map[string]bool{}
		if csv == "" {
			return set, nil
		}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !known[n] {
				return nil, fmt.Errorf("unknown analyzer %q (run -list for the registry)", n)
			}
			set[n] = true
		}
		return set, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.name] {
			continue
		}
		if skipSet[a.name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection matches no analyzers")
	}
	return out, nil
}
