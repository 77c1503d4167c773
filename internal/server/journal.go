package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"svmsim/internal/exp"
)

// The durable job journal is the daemon's write-ahead log: every job
// lifecycle transition — accepted, finished — is appended as one JSON line
// and fsynced before the daemon acts on it. The contract is
// fsync-before-ack: a client that received 202 Accepted holds a promise
// backed by a durable accept record, so a SIGKILL (or power cut) between
// the ack and the result loses no accepted job — the restarted daemon
// replays the journal and re-enqueues everything that never reached a
// terminal record. Per-cell results live in the suite's disk cache
// (internal/exp/diskcache.go), so replayed work is warm: only the cells
// that were mid-flight at the crash are re-simulated.
//
// Records follow the codec.go v1 conventions: a schema stamp on every line,
// strict decoding (a record from a different schema version is treated as
// corruption, not guessed at), and one canonical marshalling style. The
// file is append-only between compactions; compaction (at open, and online
// once dead records dominate) rewrites it atomically — temp file, fsync,
// rename, directory fsync — to just the records replay needs.
//
// Tail tolerance: a crash can tear the final append, so replay accepts
// every well-formed record up to the first undecodable byte and truncates
// the rest. Records are only ever appended whole (one write of line+'\n',
// then fsync), so a torn tail can only be the *last* write — everything
// before it was acknowledged durable and is preserved.

// Journal record operations.
const (
	opAccept = "accept"
	opFinish = "finish"
)

// journalFile is the journal's filename inside the journal directory.
const journalFile = "journal.jsonl"

// journalRecord is one journal line. Accept records carry the job's wire
// spec (the exact bytes the client submitted, canonically re-marshalled) so
// replay can re-resolve the work against the restarted suite; finish
// records carry the structured error classification.
type journalRecord struct {
	Schema  int             `json:"schema"`
	Op      string          `json:"op"`
	ID      string          `json:"id"`
	Kind    string          `json:"kind,omitempty"`
	Key     string          `json:"key,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	ErrKind string          `json:"err_kind,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// replayedJob is an accepted job with no terminal record: the restarted
// daemon re-enqueues it.
type replayedJob struct {
	ID   string
	Kind string
	Key  string
	Spec json.RawMessage
}

// journal is the write-ahead log handle. A nil *journal is a valid no-op
// journal (the daemon without -journal-dir), so call sites stay branch-free.
// The server serializes all mutations under its own mutex; the journal adds
// no locking of its own.
type journal struct {
	f       *os.File
	lock    *os.File // exclusive flock on the journal dir; nil on non-unix
	dir     string
	path    string
	records int // lines in the file, compaction trigger
}

// openJournal opens (creating if needed) the journal in dir, replays it,
// truncates any torn tail, compacts it down to the records replay produced,
// and returns the live handle plus the jobs needing attention, sorted by
// numeric job ID so re-enqueueing is deterministic.
func openJournal(dir string) (*journal, []replayedJob, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: journal dir: %w", err)
	}
	// Exclusivity before anything else: two daemons appending to one journal
	// would silently interleave each other's records, and the first replay
	// would absorb (and compact away) the other's live jobs. An advisory
	// flock makes the second open fail fast instead. The lock dies with the
	// process, so a kill -9 never wedges the directory.
	lock, err := lockJournalDir(dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		releaseJournalDir(lock)
		return nil, nil, fmt.Errorf("server: reading journal: %w", err)
	}
	replayed, _ := replayJournal(data)

	jn := &journal{lock: lock, dir: dir, path: path}
	// Compaction doubles as tail repair: the rewrite drops both the dead
	// records and whatever garbage followed the last well-formed one.
	if err := jn.rewrite(compactionRecords(replayed)); err != nil {
		releaseJournalDir(lock)
		return nil, nil, err
	}
	return jn, replayed, nil
}

// replayState accumulates one job's journal records during replay.
type replayState struct {
	rec      journalRecord
	terminal bool // a finish (or an older journal's quarantine) seen
}

// replayJournal folds the journal bytes into per-job end states. It never
// fails: decoding stops at the first undecodable or wrong-schema line (the
// torn tail) and valid reports how many bytes of data were well-formed.
func replayJournal(data []byte) (jobs []replayedJob, valid int) {
	states := make(map[string]*replayState)
	for len(data) > 0 {
		line := data
		advance := len(data)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, advance = data[:i], i+1
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Schema != exp.SchemaVersion || rec.ID == "" {
			return finishReplay(states), valid
		}
		switch rec.Op {
		case opAccept:
			if _, ok := states[rec.ID]; !ok {
				states[rec.ID] = &replayState{rec: rec}
			}
		case "start", "retry":
			// Daemons whose watchdog re-ran timed-out jobs journaled each
			// attempt; those records carry nothing replay needs.
		case opFinish, "quarantine":
			// Daemons with a job watchdog ended a timed-out job with a
			// quarantine record; it ends the job as a finish does.
			if st, ok := states[rec.ID]; ok {
				st.terminal = true
			}
		default:
			// An op this version does not know is corruption or a future
			// schema leaking in; stop here, exactly like a bad line.
			return finishReplay(states), valid
		}
		data = data[advance:]
		valid += advance
	}
	return finishReplay(states), valid
}

// finishReplay flattens the replay state machine: finished jobs vanish
// (their results persist in the disk cache), and incomplete jobs come back,
// ordered by numeric job ID.
func finishReplay(states map[string]*replayState) []replayedJob {
	var jobs []replayedJob
	for _, st := range states {
		if st.terminal {
			continue
		}
		jobs = append(jobs, replayedJob{
			ID:   st.rec.ID,
			Kind: st.rec.Kind,
			Key:  st.rec.Key,
			Spec: st.rec.Spec,
		})
	}
	sort.Slice(jobs, func(a, b int) bool { return jobNum(jobs[a].ID) < jobNum(jobs[b].ID) })
	return jobs
}

// jobNum extracts the numeric suffix of a job ID ("j17" -> 17; malformed
// IDs sort first).
func jobNum(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "j"), 10, 64)
	return n
}

// compactionRecords is the minimal record set that reproduces the replayed
// state: one accept per live job.
func compactionRecords(jobs []replayedJob) []journalRecord {
	var recs []journalRecord
	for _, j := range jobs {
		recs = append(recs, journalRecord{
			Schema: exp.SchemaVersion, Op: opAccept, ID: j.ID,
			Kind: j.Kind, Key: j.Key, Spec: j.Spec,
		})
	}
	return recs
}

// append writes one record and fsyncs it. The record is durable when append
// returns nil — the caller may then act on it (ack the client, mark the job
// terminal). A nil journal accepts everything and remembers nothing.
func (jn *journal) append(rec journalRecord) error {
	if jn == nil {
		return nil
	}
	rec.Schema = exp.SchemaVersion
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: journal encode: %w", err)
	}
	if _, err := jn.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := jn.f.Sync(); err != nil {
		return fmt.Errorf("server: journal fsync: %w", err)
	}
	jn.records++
	return nil
}

// shouldCompact reports whether dead records dominate the file enough to be
// worth a rewrite; live is the number of records a compaction would keep.
func (jn *journal) shouldCompact(live int) bool {
	return jn != nil && jn.records > 64 && jn.records > 4*live
}

// rewrite atomically replaces the journal with recs: write to a temp file
// in the same directory, fsync it, rename over the journal path, fsync the
// directory so the rename itself is durable, then adopt the new file handle
// for subsequent appends.
func (jn *journal) rewrite(recs []journalRecord) error {
	if jn == nil {
		return nil
	}
	f, err := os.CreateTemp(jn.dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	tmp := f.Name()
	abort := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: journal compact: %w", err)
	}
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return abort(err)
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			return abort(err)
		}
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, jn.path); err != nil {
		return abort(err)
	}
	if err := syncDir(jn.dir); err != nil {
		return err
	}
	// f now refers to the file at the journal path; keep it for appends
	// (its offset already sits at end-of-file).
	if jn.f != nil {
		jn.f.Close()
	}
	jn.f = f
	jn.records = len(recs)
	return nil
}

// close releases the journal file handle and the directory lock (after
// drain), so the directory can be adopted by a successor in the same
// process — tests and blue/green restarts depend on that.
func (jn *journal) close() {
	if jn == nil {
		return
	}
	if jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
	if jn.lock != nil {
		releaseJournalDir(jn.lock)
		jn.lock = nil
	}
}

// syncDir fsyncs a directory so a completed rename inside it survives a
// host crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: journal dir fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("server: journal dir fsync: %w", err)
	}
	return nil
}
