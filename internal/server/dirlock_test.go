//go:build unix

package server

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"svmsim/internal/exp"
)

// TestJournalDirExclusive: the journal directory is single-owner. A second
// open while the first holds the lock must fail fast with a message that
// names the offense (silent interleaving of two daemons' records), and the
// lock must release on close so successors — same process or a restart —
// can adopt the directory.
func TestJournalDirExclusive(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := openJournal(dir); err == nil {
		jn.close()
		t.Fatal("second openJournal on a held directory succeeded")
	} else {
		if !strings.Contains(err.Error(), "already in use") {
			t.Errorf("error does not say the directory is held: %v", err)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(os.Getpid())) {
			t.Errorf("error does not name the holder's pid: %v", err)
		}
	}

	jn.close()
	jn2, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	jn2.close()
}

// TestJournalLockSurvivesCompaction: compaction rewrites journal.jsonl via
// temp+rename, which swaps that file's inode — the exclusivity lock must
// live on the sentinel, not the journal, or a compacting daemon would
// silently drop its claim.
func TestJournalLockSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	// A journal full of finished jobs forces the open-time compaction rewrite.
	data := encodeJournal(t, []journalRecord{
		{Op: opAccept, ID: "j1", Kind: "cell", Key: "a"},
		{Op: opFinish, ID: "j1"},
	})
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, replayed, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(replayed) != 0 {
		t.Fatalf("finished job replayed: %+v", replayed)
	}
	if _, _, err := openJournal(dir); err == nil {
		t.Fatal("lock lost across open-time compaction")
	}
}

// TestServerRefusesSharedJournalDir is the daemon-level contract: two
// servers pointed at one -journal-dir must not both come up.
func TestServerRefusesSharedJournalDir(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Suite: exp.NewSuite(exp.Small), JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Suite: exp.NewSuite(exp.Small), JournalDir: dir}); err == nil {
		t.Fatal("second server adopted a held journal dir")
	} else if !strings.Contains(err.Error(), "already in use") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drain released the lock: a successor (blue/green restart) adopts.
	s2, err := New(Config{Suite: exp.NewSuite(exp.Small), JournalDir: dir})
	if err != nil {
		t.Fatalf("post-drain adoption failed: %v", err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
