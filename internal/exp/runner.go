package exp

import (
	"runtime"
	"sync"

	"svmsim"
)

// Cell is one (configuration, workload) simulation unit — the atom of every
// table and figure. Experiments enumerate their cells up front and hand them
// to Suite.RunCells, then assemble rows from the memoized results in their
// own deterministic order.
type Cell struct {
	Cfg svmsim.Config
	W   svmsim.Workload
}

// Key is the cell's content-address: the string that keys the in-memory
// memo, the persistent disk cache (as a sha256 digest) and the daemon's
// result store. Two cells with equal keys are the same simulation.
func (c Cell) Key() string { return c.W.Name + "|" + cfgKey(c.Cfg) }

// RunCells executes a batch of cells on a pool of Suite.Parallelism
// workers (GOMAXPROCS when zero or negative), deduplicating cells that
// share a key — within the batch, and through the suite's singleflight memo
// across concurrently running batches. Every cell runs, and each result or
// error lands in the memo, so callers re-read them in any order they like
// afterwards. When several cells fail, the error reported is the earliest
// failing cell's in batch order, independent of completion order.
func (s *Suite) RunCells(cells []Cell) error {
	seen := make(map[string]bool, len(cells))
	unique := make([]Cell, 0, len(cells))
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		unique = append(unique, c)
	}

	n := s.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(n, len(unique))
	errs := make([]error, len(unique))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for idx := range work {
				_, errs[idx] = s.run(unique[idx].Cfg, unique[idx].W)
			}
		}()
	}
	for idx := range unique {
		work <- idx
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// uniCell is the uniprocessor-baseline cell for a workload (uniTime's unit).
func (s *Suite) uniCell(w svmsim.Workload) Cell {
	return Cell{Cfg: svmsim.Uniprocessor(s.Base()), W: w}
}
