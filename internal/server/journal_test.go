package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"svmsim/internal/exp"
)

// journalLines decodes every record in a journal file (test helper; fails on
// any malformed line — tests that *want* corruption build it by hand).
func journalLines(t *testing.T, dir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// encodeJournal renders records as journal file bytes.
func encodeJournal(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		rec.Schema = exp.SchemaVersion
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(data, '\n'))
	}
	return buf.Bytes()
}

// TestReplayJournalStates: the replay state machine keeps incomplete jobs,
// drops finished ones, and orders the survivors by numeric job ID. The
// start and retry records of older journals change nothing, and their
// quarantine record ends its job as a finish does.
func TestReplayJournalStates(t *testing.T) {
	data := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j10", Kind: "cell", Key: "late", Spec: json.RawMessage(`{"workload":"FFT"}`)},
		{Op: opAccept, ID: "j1", Kind: "sweep", Key: "done"},
		{Op: "start", ID: "j1"},
		{Op: opFinish, ID: "j1"},
		{Op: opAccept, ID: "j2", Kind: "cell", Key: "stuck"},
		{Op: "start", ID: "j2"},
		{Op: "retry", ID: "j2"},
		{Op: "start", ID: "j2"},
		{Op: opAccept, ID: "j3", Kind: "cell", Key: "poison"},
		{Op: "quarantine", ID: "j3", ErrKind: "job_timeout", Err: "gave up"},
	})
	jobs, valid := replayJournal(data)
	if valid != len(data) {
		t.Fatalf("well-formed journal: valid=%d, want %d", valid, len(data))
	}
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2 (j2, j10): %+v", len(jobs), jobs)
	}
	if jobs[0].ID != "j2" || jobs[1].ID != "j10" {
		t.Fatalf("replay order: %s, %s", jobs[0].ID, jobs[1].ID)
	}
	if jobs[1].Kind != "cell" || string(jobs[1].Spec) != `{"workload":"FFT"}` {
		t.Fatalf("j10 spec lost: %+v", jobs[1])
	}
}

// TestReplayJournalTornTail: replay accepts everything before the first
// undecodable line and ignores the rest — a torn final append never takes
// down the daemon or loses the acked records before it.
func TestReplayJournalTornTail(t *testing.T) {
	good := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j1", Kind: "cell", Key: "a"},
		{Op: opAccept, ID: "j2", Kind: "cell", Key: "b"},
	})
	for _, tail := range []string{
		`{"schema":1,"op":"acc`,                        // torn mid-record
		`{"schema":99,"op":"accept","id":"j3"}` + "\n", // wrong schema
		`{"schema":1,"op":"warp","id":"j3"}` + "\n",    // unknown op
		"\x00\xff\xfe garbage\n",
	} {
		jobs, valid := replayJournal(append(append([]byte{}, good...), tail...))
		if valid != len(good) {
			t.Errorf("tail %q: valid=%d, want %d", tail, valid, len(good))
		}
		if len(jobs) != 2 || jobs[0].ID != "j1" || jobs[1].ID != "j2" {
			t.Errorf("tail %q: acked records lost: %+v", tail, jobs)
		}
	}
}

// attemptJournal is a journal as written by a daemon whose watchdog re-ran
// timed-out jobs and journaled each attempt's start and retry: j1 finished,
// j2 was quarantined after two attempts, and j3 was on its second attempt
// when the process died (the file ends at a record boundary, as a crash
// leaves it).
const attemptJournal = `{"schema":1,"op":"accept","id":"j1","kind":"cell","key":"FFT|p4/n2/ho500/occ200/io0.5/intr500/pg4096/mode0/pol0/allfalse/req0/nis0/nisrvfalse","spec":{"workload":"FFT"}}
{"schema":1,"op":"start","id":"j1","attempt":1}
{"schema":1,"op":"finish","id":"j1","attempt":1}
{"schema":1,"op":"accept","id":"j2","kind":"cell","key":"LU|p4/n2/ho500/occ200/io0.5/intr500/pg4096/mode0/pol0/allfalse/req0/nis0/nisrvfalse","spec":{"workload":"LU"}}
{"schema":1,"op":"start","id":"j2","attempt":1}
{"schema":1,"op":"retry","id":"j2","attempt":1}
{"schema":1,"op":"start","id":"j2","attempt":2}
{"schema":1,"op":"quarantine","id":"j2","attempt":2,"err_kind":"job_timeout","err":"job attempt 2 exceeded the 20ms deadline (key LU|p4/n2/ho500/occ200/io0.5/intr500/pg4096/mode0/pol0/allfalse/req0/nis0/nisrvfalse)"}
{"schema":1,"op":"accept","id":"j3","kind":"cell","key":"Radix|p4/n2/ho500/occ200/io0.5/intr500/pg4096/mode0/pol0/allfalse/req0/nis0/nisrvfalse","spec":{"workload":"Radix"}}
{"schema":1,"op":"start","id":"j3","attempt":1}
{"schema":1,"op":"retry","id":"j3","attempt":1}
{"schema":1,"op":"start","id":"j3","attempt":2}
`

// TestReplayJournalWithAttemptRecords: a journal with start, retry and
// quarantine records replays to its one pending job, and the compaction at
// open keeps only that job's accept.
func TestReplayJournalWithAttemptRecords(t *testing.T) {
	const cfg = "|p4/n2/ho500/occ200/io0.5/intr500/pg4096/mode0/pol0/allfalse/req0/nis0/nisrvfalse"
	want := []replayedJob{
		{ID: "j3", Kind: "cell", Key: "Radix" + cfg, Spec: json.RawMessage(`{"workload":"Radix"}`)},
	}
	check := func(what string, got []replayedJob) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d jobs, want %d: %+v", what, len(got), len(want), got)
		}
		for i, w := range want {
			g := got[i]
			if g.ID != w.ID || g.Kind != w.Kind || g.Key != w.Key || string(g.Spec) != string(w.Spec) {
				t.Errorf("%s: job %d = %+v, want %+v", what, i, g, w)
			}
		}
	}

	jobs, valid := replayJournal([]byte(attemptJournal))
	if valid != len(attemptJournal) {
		t.Fatalf("valid=%d, want the whole journal (%d)", valid, len(attemptJournal))
	}
	check("replay", jobs)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(attemptJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, replayed, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jn.close()
	check("open", replayed)
	jn, replayed, err = openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	check("reopen after compaction", replayed)
	if recs := journalLines(t, dir); len(recs) != 1 || recs[0].Op != opAccept || recs[0].ID != "j3" {
		t.Fatalf("compacted journal: %+v, want the accept of j3", recs)
	}
}

// TestReplayReadsPastRetryRecords: start and retry records are not unknown
// ops, so replay reads on past them, and the compaction at open keeps every
// job the later records name.
func TestReplayReadsPastRetryRecords(t *testing.T) {
	data := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j1", Kind: "cell", Key: "a"},
		{Op: "retry", ID: "j1"},
		{Op: opAccept, ID: "j2", Kind: "cell", Key: "b"},
		{Op: opFinish, ID: "j1"},
		{Op: "start", ID: "j2"},
		{Op: opAccept, ID: "j3", Kind: "cell", Key: "c"},
	})
	jobs, valid := replayJournal(data)
	if valid != len(data) || len(jobs) != 2 || jobs[0].ID != "j2" || jobs[1].ID != "j3" {
		t.Fatalf("replay: valid=%d of %d, jobs %+v; want j2 and j3", valid, len(data), jobs)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, replayed, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(replayed) != 2 {
		t.Fatalf("open: %+v, want j2 and j3", replayed)
	}
	if recs := journalLines(t, dir); len(recs) != 2 || recs[0].ID != "j2" || recs[1].ID != "j3" {
		t.Fatalf("compaction dropped records after the retry line: %+v", recs)
	}
}

// TestOpenJournalCompactsAndRepairs: opening a journal with dead records and
// a torn tail rewrites it to just the live set — and the rewrite is the real
// atomic temp+rename path, so the repaired file replays identically.
func TestOpenJournalCompactsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	data := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j1", Kind: "cell", Key: "done"},
		{Op: opFinish, ID: "j1"},
		{Op: opAccept, ID: "j2", Kind: "cell", Key: "live", Spec: json.RawMessage(`{"workload":"FFT"}`)},
		{Op: "start", ID: "j2"},
	})
	data = append(data, []byte(`{"schema":1,"op":"fin`)...) // torn tail
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}

	jn, replayed, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(replayed) != 1 || replayed[0].ID != "j2" {
		t.Fatalf("replay: %+v", replayed)
	}
	recs := journalLines(t, dir)
	if len(recs) != 1 || recs[0].Op != opAccept || recs[0].ID != "j2" {
		t.Fatalf("compacted journal: %+v", recs)
	}
	if string(recs[0].Spec) != `{"workload":"FFT"}` {
		t.Fatalf("compaction lost the spec: %s", recs[0].Spec)
	}
}

// TestJournalAcceptPrecedesAck: by the time a submission's 202 is written,
// its accept record is already durable in the journal — the fsync-before-ack
// contract, observed while the job is still gated on a worker.
func TestJournalAcceptPrecedesAck(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Suite: testSuite(), Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	rec := submitCell(s, gateWorkload("gate", gate))
	if rec.Code != 202 {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	id := jobID(t, rec)
	recs := journalLines(t, dir)
	var found bool
	for _, r := range recs {
		if r.Op == opAccept && r.ID == id {
			found = true
			if r.Key == "" || r.Kind != "cell" {
				t.Fatalf("accept record incomplete: %+v", r)
			}
		}
		if r.Op == opFinish && r.ID == id {
			t.Fatalf("gated job already finished: %+v", recs)
		}
	}
	if !found {
		t.Fatalf("no durable accept for acked job %s: %+v", id, recs)
	}
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayRunsToCompletion: a journal holding an accepted-but-never-
// finished sweep is replayed on startup — the job is re-registered under its
// old ID, re-enqueued, and its result is byte-identical to an uninterrupted
// in-process run. Resubmitting the same sweep coalesces instead of
// re-simulating, and new job IDs continue past the journal's high-water mark.
func TestJournalReplayRunsToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a real sweep")
	}
	spec := exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}}
	ref := testSuite()
	refRes, err := ref.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.EncodeSweepResult(refRes)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-craft the crashed daemon's journal: j1 accepted, started, never
	// finished.
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}})
	if err := jn.append(journalRecord{Op: opAccept, ID: "j1", Kind: "sweep", Key: "stale", Spec: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jn.append(journalRecord{Op: "start", ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	jn.close()

	s, err := New(Config{Suite: testSuite(), Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A resubmission of the in-flight sweep coalesces onto j1 (or, if it
	// already finished, is a store hit) — never a duplicate simulation.
	code, v := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", `{"param":"interrupt","apps":["FFT"]}`)
	if code != 200 || (v.ID != "j1" && !v.Cached) {
		t.Fatalf("resubmission of replayed job: %d %+v", code, v)
	}

	got := fetchResult(t, ts.Client(), ts.URL, "j1")
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed result diverges from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	rec := submitCell(s, tinyWorkload("tiny"))
	if id := jobID(t, rec); jobNum(id) <= 1 {
		t.Fatalf("job IDs did not continue past the journal: %s", id)
	}
	if replayed := s.metrics.replayed.Value(); replayed != 1 {
		t.Fatalf("jobsReplayed = %d, want 1", replayed)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalOnlineCompaction: a long-lived daemon's journal does not grow
// without bound — once dead records dominate, it is compacted in place down
// to the live set. An older daemon's quarantine record ended its job, so
// that job is never live again.
func TestJournalOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	old := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j1", Kind: "cell", Key: "poison", Spec: json.RawMessage(`{"workload":"LU"}`)},
		{Op: "quarantine", ID: "j1", ErrKind: "job_timeout", Err: "gave up"},
	})
	if err := os.WriteFile(filepath.Join(dir, journalFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Suite: testSuite(), Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Each unique finished job contributes accept+finish dead records;
	// enough of them must trip the compaction threshold.
	for i := 0; i < 40; i++ {
		rec := submitCell(s, tinyWorkload("tiny-"+string(rune('A'+i%26))+string(rune('a'+i/26))))
		if rec.Code != 202 && rec.Code != 200 {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		if rec.Code == 202 {
			waitTerminal(t, s, jobID(t, rec))
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := journalLines(t, dir)
	if len(recs) > 70 {
		t.Fatalf("journal never compacted: %d records on disk for 40 finished jobs", len(recs))
	}
	if replayed := s.metrics.replayed.Value(); replayed != 0 {
		t.Fatalf("the quarantined job was replayed: jobsReplayed = %d", replayed)
	}
	// Everything finished, so a reopen replays nothing and compacts to zero.
	jn, replayed, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(replayed) != 0 {
		t.Fatalf("finished jobs leaked into replay: %+v", replayed)
	}
	if recs := journalLines(t, dir); len(recs) != 0 {
		t.Fatalf("reopen did not compact a dead journal: %+v", recs)
	}
}

// FuzzJournalReplay: replay must tolerate any file state a crash can leave —
// arbitrary truncation of a valid journal plus arbitrary trailing garbage —
// without panicking, without losing records that were fsync-acked before the
// torn point, and idempotently (replaying the valid prefix reproduces the
// same state).
func FuzzJournalReplay(f *testing.F) {
	canonical := func() []byte {
		var buf bytes.Buffer
		recs := []journalRecord{
			{Op: opAccept, ID: "j1", Kind: "sweep", Key: "k1", Spec: json.RawMessage(`{"param":"interrupt"}`)},
			{Op: "start", ID: "j1"},
			{Op: opAccept, ID: "j2", Kind: "cell", Key: "k2"},
			{Op: opFinish, ID: "j1"},
			{Op: "retry", ID: "j2"},
			{Op: "quarantine", ID: "j2", ErrKind: "job_timeout", Err: "gave up"},
		}
		for _, rec := range recs {
			rec.Schema = exp.SchemaVersion
			data, _ := json.Marshal(rec)
			buf.Write(append(data, '\n'))
		}
		return buf.Bytes()
	}()

	f.Add(uint16(0), []byte{})
	f.Add(uint16(len(canonical)), []byte{})
	f.Add(uint16(17), []byte(`{"schema":1,"op":"accept","id":"j9"}`+"\n"))
	f.Add(uint16(100), []byte("\x00\xff torn"))
	f.Fuzz(func(t *testing.T, cutRaw uint16, garbage []byte) {
		cut := int(cutRaw) % (len(canonical) + 1)
		mutated := append(append([]byte{}, canonical[:cut]...), garbage...)

		jobs, valid := replayJournal(mutated) // must not panic
		if valid < 0 || valid > len(mutated) {
			t.Fatalf("valid=%d out of range [0,%d]", valid, len(mutated))
		}

		// Idempotence: the well-formed prefix replays to the same state.
		again, validAgain := replayJournal(mutated[:valid])
		if validAgain != valid || !reflect.DeepEqual(jobs, again) {
			t.Fatalf("replay not idempotent: valid %d->%d, %+v vs %+v", valid, validAgain, jobs, again)
		}

		// Durability on pure truncation (the shape a crash actually leaves):
		// every record in a complete line before the cut was fsync-acked, so
		// replay must consume at least that prefix — no acked record lost.
		// (It may consume *more*: a cut landing after a record's closing
		// brace but before its newline still yields a whole record, which
		// replay rightly keeps.) Combined with the idempotence check above,
		// the recovered state is exactly the fold of the records replay
		// consumed.
		if len(garbage) == 0 {
			end := 0
			if i := bytes.LastIndexByte(canonical[:cut], '\n'); i >= 0 {
				end = i + 1
			}
			if valid < end {
				t.Fatalf("truncation at %d dropped acked bytes: valid=%d < complete-line prefix %d",
					cut, valid, end)
			}
		}
	})
}
