// Command sweep varies one communication parameter across its studied range
// for a chosen set of workloads and prints the speedup series (one paper
// figure at a time, on demand).
//
// Usage:
//
//	sweep -param interrupt
//	sweep -param iobw -apps FFT,Radix
//	sweep -param pagesize -mode aurc
//	sweep -param interrupt -apps FFT -json        # schema-v1 document
//	sweep -cell '{"workload":"FFT","procs":8}'    # one cell, schema-v1 document
//	sweep -param interrupt -cpuprofile cpu.prof   # profile the run
//	sweep -param interrupt -remote http://host:7117   # run on a daemon/fleet
//
// The -json and -cell outputs use the versioned wire schema of
// internal/exp/codec.go — the same canonical bytes the svmsimd daemon
// serves, so `sweep -json` and a daemon result for the same spec diff clean.
//
// With -remote the sweep is submitted to a running svmsimd (or a fleet
// coordinator) instead of simulating locally; the client honors Retry-After
// on 429 with capped exponential backoff, so a saturated daemon slows the
// sweep down rather than failing it. Note the daemon's -size must match
// this command's -size: problem size is a suite-level setting, not part of
// the cell key.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/fleet"
	"svmsim/internal/server"
)

func main() { os.Exit(run()) }

// run is main's body with deferred cleanup intact: profiles only flush if
// the CPU profile is stopped and the heap profile written before the process
// exits, so every exit path must return through here instead of os.Exit.
func run() int {
	size := exp.Small
	flag.Var(&size, "size", "problem size: small or default")
	var (
		param = flag.String("param", "interrupt",
			"parameter to sweep: "+strings.Join(exp.AxisNames(), ", "))
		appsFlag   = flag.String("apps", "", "comma-separated workload subset (default: all)")
		mode       = flag.String("mode", exp.Modes.Name(svmsim.HLRC), "protocol: "+exp.Modes.Want())
		parallel   = flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = serial)")
		cacheDir   = flag.String("cache-dir", "", "persist finished cells to this directory and reuse them across runs")
		jsonOut    = flag.Bool("json", false, "emit the sweep as a schema-v1 JSON document instead of a rendered table")
		cellSpec   = flag.String("cell", "", "run one cell from an inline JSON cell spec and emit its schema-v1 result document")
		remote     = flag.String("remote", "", "submit to the svmsimd daemon or fleet coordinator at this base URL instead of simulating locally")
		twinPrune  = flag.Bool("twin-prune", false, "calibrate the analytical twin on the swept axis and simulate only cells its prediction cannot decide; the rest are filled from the model and marked predicted")
		twinEps    = flag.Float64("twin-eps", 0.05, "with -twin-prune and no -twin-target: simulate cells whose relative confidence interval exceeds this")
		twinTarget = flag.Float64("twin-target", 0, "with -twin-prune: simulate only cells whose confidence interval straddles this target speedup (0 = use -twin-eps)")
		verbose    = flag.Bool("v", false, "progress output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *twinPrune && (*remote != "" || *cellSpec != "") {
		fmt.Fprintln(os.Stderr, "-twin-prune prunes a local sweep; it cannot combine with -remote or -cell")
		return 1
	}

	// Parse -cell here, once, so a typo is a parse error whether the cell
	// runs locally or on a daemon.
	var cell exp.CellSpec
	if *cellSpec != "" {
		if err := server.DecodeJSON(strings.NewReader(*cellSpec), &cell); err != nil {
			fmt.Fprintln(os.Stderr, "parsing -cell spec:", err)
			return 1
		}
	}
	spec := exp.SweepSpec{Param: *param, Mode: *mode}
	if *appsFlag != "" {
		for _, n := range strings.Split(*appsFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				spec.Apps = append(spec.Apps, n)
			}
		}
	}

	if *remote != "" {
		code, err := runRemote(strings.TrimRight(*remote, "/"), *cellSpec, spec, *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return code
	}

	s := exp.NewSuite(size)
	s.Parallelism = *parallel
	s.CacheDir = *cacheDir
	if *verbose {
		s.Verbose = os.Stderr
	}

	if *cellSpec != "" {
		code, err := runCell(s, cell)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return code
	}

	var res exp.SweepResult
	var err error
	if *twinPrune {
		res, err = runTwinPruned(s, spec, *twinEps, *twinTarget)
	} else {
		res, err = s.RunSweep(spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *jsonOut {
		data, err := exp.EncodeSweepResult(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	}
	fmt.Print(renderTable(res))
	if res.Twin != nil {
		fmt.Print(twinFootnote(res.Twin))
	}
	return 0
}

// renderTable converts a wire sweep result back into the human table the
// local path prints — shared by local runs and -remote so both modes render
// identically.
func renderTable(res exp.SweepResult) string {
	tbl := &exp.Table{ID: res.Table.ID, Title: res.Table.Title, Cols: res.Table.Cols}
	for _, r := range res.Table.Rows {
		row := exp.Row{Name: r.Name, Err: r.Err}
		for _, v := range r.Values {
			row.Values = append(row.Values, float64(v))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl.String()
}

// runRemote submits the sweep spec, or the single cell spec when cellSpec is
// set (already parsed, and sent as given), to a running daemon or fleet
// coordinator and waits for the result, mirroring the local exit codes: 0 on
// success, 1 with the structured document printed when the run failed.
func runRemote(base, cellSpec string, spec exp.SweepSpec, jsonOut bool) (int, error) {
	client := &fleet.Client{}
	ctx := context.Background()

	if cellSpec != "" {
		status, data, err := client.SubmitAndWait(ctx, base, "/v1/cells", []byte(cellSpec))
		if err != nil {
			return 1, err
		}
		os.Stdout.Write(data)
		if status != http.StatusOK {
			return 1, nil
		}
		return 0, nil
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return 1, err
	}
	status, data, err := client.SubmitAndWait(ctx, base, "/v1/sweeps", body)
	if err != nil {
		return 1, err
	}
	if status != http.StatusOK {
		os.Stdout.Write(data)
		return 1, nil
	}
	if jsonOut {
		os.Stdout.Write(data)
		return 0, nil
	}
	res, err := exp.DecodeSweepResult(data)
	if err != nil {
		return 1, err
	}
	fmt.Print(renderTable(res))
	return 0, nil
}

// runCell executes one cell spec and prints the canonical result document.
// A failed cell still prints its structured result (err_kind/err) and
// reports exit code 1.
func runCell(s *exp.Suite, spec exp.CellSpec) (int, error) {
	cell, err := s.ResolveCell(spec)
	if err != nil {
		return 1, err
	}
	run, runErr := s.RunCell(cell)
	data, err := exp.EncodeCellResult(exp.NewCellResult(cell.Key(), run, runErr))
	if err != nil {
		return 1, err
	}
	os.Stdout.Write(data)
	if runErr != nil {
		return 1, nil
	}
	return 0, nil
}
