package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"

	"svmsim"
)

// The persistent cell cache stores one CellResult document (the versioned
// wire schema of codec.go) per finished cell, so a cache entry is the exact
// bytes the daemon serves and cmd/sweep -cell prints. The full cell key
// inside the document is a collision/truncation guard — the filename is only
// its hash — and the schema version makes entries from an older encoding a
// clean miss instead of a misparse. The simulator is deterministic, so
// entries never go stale for a given key; changing any configuration field
// changes the key.

// cellPath maps a cell key to its spill file. Keys embed workload names and
// free-form plan strings, so the filename is a digest rather than the key.
func cellPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".json")
}

// loadCell reads a spilled cell. Any defect — missing file, torn or corrupt
// JSON, a schema-version mismatch, a digest collision — is a plain cache
// miss: the caller re-simulates and overwrites the entry. A cached error
// keeps its structured kind (see ErrKind) via resultErr.
func (s *Suite) loadCell(key string) (*svmsim.RunStats, error, bool) {
	data, err := os.ReadFile(cellPath(s.CacheDir, key))
	if err != nil {
		return nil, nil, false
	}
	e, err := DecodeCellResult(data)
	if err != nil || e.Key != key {
		return nil, nil, false
	}
	if cerr := resultErr(e); cerr != nil {
		return nil, cerr, true
	}
	if e.Run == nil {
		return nil, nil, false
	}
	// Defensive: the suite never spills predicted cells (cache purity —
	// only measurements persist), but a foreign document marked predicted
	// must not be laundered into a simulated result. Treat it as a miss.
	if e.Source == SourcePredictedCell {
		return nil, nil, false
	}
	return e.Run, nil, true
}

// spillCell writes one finished cell atomically: marshal to a unique temp
// file in the cache directory, then rename over the final path, so a reader
// — or a racing writer in another process sharing the directory — sees
// either the old complete entry or the new complete one, never a torn
// write; concurrent writers of the same key settle on whichever rename
// lands last, and both wrote identical bytes anyway (the simulator is
// deterministic). Spill failures are deliberately silent — the disk cache
// is an accelerator, not a correctness layer, and the in-memory memo
// already holds the result.
func (s *Suite) spillCell(key string, run *svmsim.RunStats, runErr error) {
	data, err := EncodeCellResult(NewCellResult(key, run, runErr))
	if err != nil {
		return
	}
	if os.MkdirAll(s.CacheDir, 0o755) != nil {
		return
	}
	f, err := os.CreateTemp(s.CacheDir, "cell-*.tmp")
	if err != nil {
		return
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	// fsync before the rename: without it a host crash can commit the
	// rename but not the data, persisting an empty or torn entry that the
	// loader's corruption tolerance would silently re-simulate — or worse,
	// that a restarted daemon would serve as a miss forever while the file
	// squats on the final path. Durability first, then atomic visibility.
	if f.Sync() != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if f.Close() != nil {
		os.Remove(tmp)
		return
	}
	if os.Rename(tmp, cellPath(s.CacheDir, key)) != nil {
		os.Remove(tmp)
	}
}
