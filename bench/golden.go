package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"svmsim"
	"svmsim/internal/exp"
)

// goldenJSON holds the digests written by `svmbench -write-golden` at the
// seed commit. They pin the simulator's outputs, not their accuracy: the
// model is unvalidated against hardware.
//
//go:embed golden.json
var goldenJSON []byte

// golden maps each output a workload can produce to the sha256 of its bytes.
// Keys name the producer: "cell <content key>" for a cell's canonical
// exp.EncodeCellResult document, "table <id>" for a figure's rendered text,
// and "predict <workload> intr=<cycles>" for a twin prediction body.
type golden struct {
	mu     sync.Mutex
	record bool
	sums   map[string]string
}

func loadGolden(data []byte) (*golden, error) {
	g := &golden{sums: map[string]string{}}
	if err := json.Unmarshal(data, &g.sums); err != nil {
		return nil, fmt.Errorf("parsing golden digests: %w", err)
	}
	return g, nil
}

// newRecorder returns a golden set that learns every digest it is shown.
func newRecorder() *golden { return &golden{record: true, sums: map[string]string{}} }

// check compares data's digest with the one recorded for key. A recorder
// stores unseen keys, and still reports a key whose bytes differ between two
// productions, since the simulator is deterministic.
func (g *golden) check(key string, data []byte) error {
	h := sha256.Sum256(data)
	sum := hex.EncodeToString(h[:])
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.sums[key]
	switch {
	case !ok && g.record:
		g.sums[key] = sum
	case !ok:
		return fmt.Errorf("no golden digest for %q", key)
	case want != sum:
		return fmt.Errorf("%q digest %.12s differs from golden %.12s", key, sum, want)
	}
	return nil
}

// cellDoc is a finished cell's canonical wire document, byte-identical to
// what the daemon serves for it.
func cellDoc(key string, run *svmsim.RunStats) ([]byte, error) {
	return exp.EncodeCellResult(exp.NewCellResult(key, run, nil))
}
