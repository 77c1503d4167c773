package exp

import (
	"runtime"
	"sync"

	"svmsim"
)

// Cell is one (configuration, workload) simulation unit — the atom of every
// table and figure. An experiment names its cells once, as the batch it
// hands to Suite.RunCells, and builds its rows from the results that batch
// returns.
type Cell struct {
	Cfg svmsim.Config
	W   svmsim.Workload
}

// Key is the cell's content-address: the string that keys the in-memory
// memo, the persistent disk cache (as a sha256 digest) and the daemon's
// result store. Two cells with equal keys are the same simulation.
func (c Cell) Key() string { return c.W.Name + "|" + cfgKey(c.Cfg) }

// RunCells executes a batch of cells on a pool of Suite.Parallelism
// workers (GOMAXPROCS when zero or negative) and returns each cell's
// statistics and error, aligned with cells. Cells that share a key run
// once and share one result — within the batch, and through the suite's
// singleflight memo across concurrently running batches. Every cell runs,
// whatever its neighbours' outcomes; FirstErr picks the earliest failing
// cell in batch order, independent of completion order.
func (s *Suite) RunCells(cells []Cell) ([]*svmsim.RunStats, []error) {
	// src[i] is the first cell in the batch with cell i's key.
	first := make(map[string]int, len(cells))
	src := make([]int, len(cells))
	var unique []int
	for i, c := range cells {
		k := c.Key()
		j, ok := first[k]
		if !ok {
			j = i
			first[k] = i
			unique = append(unique, i)
		}
		src[i] = j
	}

	n := s.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(n, len(unique))
	runs := make([]*svmsim.RunStats, len(cells))
	errs := make([]error, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for i := range work {
				runs[i], errs[i] = s.run(cells[i].Cfg, cells[i].W)
			}
		}()
	}
	for _, i := range unique {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, j := range src {
		runs[i], errs[i] = runs[j], errs[j]
	}
	return runs, errs
}

// FirstErr returns the first non-nil error in errs: for a RunCells batch,
// the earliest failing cell's.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// grid lists the cells of a workload × configuration table row-major: each
// workload's cells in configuration order, so row i of the batch's results
// is runs[i*len(cfgs):][:len(cfgs)].
func grid(wls []svmsim.Workload, cfgs []svmsim.Config) []Cell {
	cells := make([]Cell, 0, len(wls)*len(cfgs))
	for _, w := range wls {
		for _, cfg := range cfgs {
			cells = append(cells, Cell{Cfg: cfg, W: w})
		}
	}
	return cells
}
