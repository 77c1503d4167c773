package server

import (
	"encoding/json"
	"fmt"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/walltime"
)

// Job lifecycle states.
const (
	statusQueued      = "queued"
	statusRunning     = "running"
	statusDone        = "done"
	statusFailed      = "failed"
	statusQuarantined = "quarantined"
)

// job is one accepted unit of work: a cell or a sweep. Once accepted a job
// is never dropped — its accept record is fsynced to the journal before the
// client sees 202, it either runs to completion on the worker pool (or to
// the watchdog's deadline, when one is set) or is drained to completion at
// shutdown, and a daemon crash re-enqueues it from the journal on restart.
// Admission control (429) happens before a job exists.
type job struct {
	id   string
	kind string // "cell" or "sweep"
	key  string // content address of the underlying work

	cell  exp.Cell        // kind == "cell"
	sweep exp.SweepSpec   // kind == "sweep"
	spec  json.RawMessage // wire spec as submitted, journaled for replay

	replayed bool // revived from the journal: exempt from Config.QueueDepth

	// Guarded by the server mutex.
	status  string
	cached  bool   // served from the result store, zero simulations
	errKind string // structured error classification when failed
	errMsg  string
	result  []byte // canonical result document (also set for failed cells)

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// stored is one content-addressed result store entry: the canonical result
// bytes plus the error classification a resubmission must reproduce.
type stored struct {
	result  []byte
	errKind string
	errMsg  string
}

// outcome is one finished execution.
type outcome struct {
	data    []byte
	errKind string
	errMsg  string
}

// workers run jobs from the queue until it is closed (drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if !j.replayed {
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
		}
		s.runJob(j)
	}
}

// runJob supervises one job: the job executes on its own goroutine while
// the worker waits on the outcome or, with JobDeadline set, on the
// wall-clock deadline (via the walltime boundary — the simulation itself
// never sees host time). A job that runs past the deadline is quarantined
// with a typed *exp.JobTimeoutError and never re-run: a cell simulates the
// same way every time, so a second run could only wait longer. The
// abandoned goroutine is not cancellable (the simulator has no preemption
// points); it keeps running, and its result lands in the suite's memo and
// disk cache, where a resubmission of the same key finds it.
func (s *Server) runJob(j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.mu.Lock()
	j.status = statusRunning
	s.mu.Unlock()
	resc := make(chan outcome, 1)
	go func() { resc <- s.execute(j) }()
	var expired <-chan time.Time // nil without a deadline: never ready
	if s.jobDeadline > 0 {
		deadline := walltime.NewTimer(s.jobDeadline)
		defer deadline.Stop()
		expired = deadline.C()
	}
	select {
	case out := <-resc:
		s.finishJob(j, out)
	case <-expired:
		s.quarantineJob(j, &exp.JobTimeoutError{Key: j.key, Deadline: s.jobDeadline})
	}
}

// execute runs a job to its outcome. It mutates no job state — the
// supervisor in runJob owns all transitions — so a run abandoned by the
// watchdog can finish late without clobbering anything. A failed cell still
// produces a result document (the structured CellResult carrying
// err_kind/err), exactly as the disk cache stores it.
func (s *Server) execute(j *job) outcome {
	var data []byte
	var errKind, errMsg string
	var encErr error
	switch j.kind {
	case "cell":
		run, err := s.suite.RunCell(j.cell)
		if err != nil {
			errKind, errMsg = exp.ErrKind(err), err.Error()
		}
		data, encErr = exp.EncodeCellResult(exp.NewCellResult(j.key, run, err))
	case "sweep":
		res, err := s.suite.RunSweep(j.sweep)
		if err != nil {
			errKind, errMsg = exp.ErrKind(err), err.Error()
		} else {
			data, encErr = exp.EncodeSweepResult(res)
		}
	default:
		errKind, errMsg = "failed", fmt.Sprintf("unknown job kind %q", j.kind)
	}
	if encErr != nil {
		errKind, errMsg = "failed", "encoding result: "+encErr.Error()
		data = nil
	}
	return outcome{data: data, errKind: errKind, errMsg: errMsg}
}

// finishJob publishes a terminal state, stores the result under its content
// key, journals the completion, and updates the metrics.
func (s *Server) finishJob(j *job, out outcome) {
	s.mu.Lock()
	j.result = out.data
	j.errKind, j.errMsg = out.errKind, out.errMsg
	if out.errMsg != "" {
		j.status = statusFailed
	} else {
		j.status = statusDone
	}
	if out.data != nil {
		s.store[j.key] = stored{result: out.data, errKind: out.errKind, errMsg: out.errMsg}
	}
	s.releaseKeyLocked(j)
	// A finish record that fails to persist only costs a warm re-run after
	// a crash (at-least-once semantics); the durability contract is on
	// accepts, so the error is deliberately not propagated.
	s.appendJournalLocked(journalRecord{Op: opFinish, ID: j.id, ErrKind: out.errKind, Err: out.errMsg})
	s.mu.Unlock()
	if out.errMsg != "" {
		s.metrics.failed.Inc()
	} else {
		s.metrics.done.Inc()
	}
	close(j.done)
}

// quarantineJob parks a poison job in the terminal quarantined state: it
// stays addressable (clients get its structured timeout error), survives
// restarts through the journal, and is never re-enqueued.
func (s *Server) quarantineJob(j *job, err error) {
	s.mu.Lock()
	j.status = statusQuarantined
	j.errKind, j.errMsg = exp.ErrKind(err), err.Error()
	s.releaseKeyLocked(j)
	s.appendJournalLocked(journalRecord{Op: opQuarantine, ID: j.id, ErrKind: j.errKind, Err: j.errMsg})
	s.mu.Unlock()
	s.metrics.quarantined.Inc()
	close(j.done)
}

// releaseKeyLocked retires a job's claim on the active-key index (the
// idempotent-resubmission map). The caller holds s.mu.
func (s *Server) releaseKeyLocked(j *job) {
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
}

// appendJournalLocked journals a non-accept transition and compacts the
// file once dead records dominate. The caller holds s.mu, which serializes
// every journal mutation — so the compaction snapshot cannot miss a
// concurrent append.
func (s *Server) appendJournalLocked(rec journalRecord) {
	s.journal.append(rec)
	if s.journal.shouldCompact(s.liveJournalLocked()) {
		s.journal.rewrite(s.journalSnapshotLocked())
	}
}

// liveJournalLocked counts the jobs a compaction must keep.
func (s *Server) liveJournalLocked() int {
	n := 0
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			switch j.status {
			case statusQueued, statusRunning, statusQuarantined:
				n++
			}
		}
	}
	return n
}

// journalSnapshotLocked rebuilds the minimal journal for the current job
// index: accepts for queued/running jobs, accept+quarantine for quarantined
// ones. Finished jobs are dropped — their per-cell results persist in the
// suite's disk cache. The caller holds s.mu; s.order keeps the output
// deterministic.
func (s *Server) journalSnapshotLocked() []journalRecord {
	var recs []journalRecord
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		switch j.status {
		case statusQueued, statusRunning:
			recs = append(recs, journalRecord{Op: opAccept, ID: j.id, Kind: j.kind, Key: j.key, Spec: j.spec})
		case statusQuarantined:
			recs = append(recs,
				journalRecord{Op: opAccept, ID: j.id, Kind: j.kind, Key: j.key, Spec: j.spec},
				journalRecord{Op: opQuarantine, ID: j.id, ErrKind: j.errKind, Err: j.errMsg})
		}
	}
	return recs
}

// newJobLocked allocates a job record and registers it; the caller holds
// s.mu. Job IDs are a process-local sequence — no clocks, no randomness —
// continued across restarts from the journal's high-water mark.
func (s *Server) newJobLocked(kind, key string) *job {
	s.seq++
	j := &job{
		id:     fmt.Sprintf("j%d", s.seq),
		kind:   kind,
		key:    key,
		status: statusQueued,
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j
}

// evictLocked bounds the completed-job index: when more than maxJobs records
// exist, the oldest terminal jobs are forgotten (their results stay in the
// content-addressed store). Queued or running jobs are never evicted.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.maxJobs {
		evicted := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			if j.status == statusDone || j.status == statusFailed || j.status == statusQuarantined {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the map grow rather than lose a job
		}
	}
}

// inflightCount is the inflight gauge reader.
func (s *Server) inflightCount() int { return int(s.inflight.Load()) }
