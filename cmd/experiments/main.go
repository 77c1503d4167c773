// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index) and prints
// them in order. With -out, it also writes the rendered tables to a file
// (the source for EXPERIMENTS.md).
//
// Usage:
//
//	experiments                  # all experiments, small problem sizes
//	experiments -size default    # benchmark-sized problems (slower)
//	experiments -only fig10,table3
//
// An -only ID the suite does not define exits 2, listing the valid IDs,
// before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"svmsim/internal/exp"
	"svmsim/internal/walltime"
)

func main() {
	size := exp.Small
	flag.Var(&size, "size", "problem size: small or default")
	var (
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		out      = flag.String("out", "", "also write rendered tables to this file")
		procs    = flag.Int("procs", 16, "total processors")
		ppn      = flag.Int("ppn", 4, "processors per node (baseline)")
		parallel = flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache-dir", "", "persist finished cells to this directory and reuse them across runs")
		verbose  = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	s := exp.NewSuite(size)
	s.Procs = *procs
	s.PPN = *ppn
	s.Parallelism = *parallel
	s.CacheDir = *cacheDir
	if *verbose {
		s.Observe = exp.Progress(os.Stderr)
	}

	exps := s.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	want, err := selectIDs(*only, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	failed := 0
	for _, e := range exps {
		if want != nil && !want[e.ID] {
			continue
		}
		sw := walltime.Start()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "%s\n(elapsed %.1fs)\n\n", tbl.String(), sw.Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// selectIDs parses the -only list against the suite's experiment IDs. It
// returns the set to run, nil for an empty list (run everything), or an
// error naming the first ID that valid does not contain.
func selectIDs(only string, valid []string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	known := make(map[string]bool, len(valid))
	for _, id := range valid {
		known[id] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}
