package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// reopen closes l and opens the directory fresh, failing the test on
// error.
func reopen(t *testing.T, l *Log, dir string) (*Log, *Recovered) {
	t.Helper()
	l.Close()
	l2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return l2, rec
}

func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh log recovered state: %+v", rec)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l, rec = reopen(t, l, dir)
	defer l.Close()
	if len(rec.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec.Records))
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("rec-%d", i); string(r) != want {
			t.Errorf("record %d = %q, want %q", i, r, want)
		}
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("clean shutdown reported %d truncated bytes", rec.TruncatedBytes)
	}
}

func TestLogSnapshotAdvancesGeneration(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	if err := l.Snapshot([]byte("state-ab")); err != nil {
		t.Fatal(err)
	}
	if g := l.Stats().Gen; g != 1 {
		t.Fatalf("generation %d after first snapshot, want 1", g)
	}
	l.Append([]byte("c"))
	l, rec := reopen(t, l, dir)
	defer l.Close()
	if string(rec.Snapshot) != "state-ab" {
		t.Fatalf("snapshot %q, want state-ab", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "c" {
		t.Fatalf("post-snapshot records %q, want [c]", rec.Records)
	}
	// Generation 0 files must be gone.
	if _, err := os.Stat(filepath.Join(dir, "wal.0")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("wal.0 still present after snapshot")
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("kept-1"))
	l.Append([]byte("kept-2"))
	l.Close()
	// Simulate a crash mid-append: half a frame lands at the tail.
	walFile := filepath.Join(dir, "wal.0")
	torn := EncodeRecord(nil, []byte("never acknowledged"))
	f, err := os.OpenFile(walFile, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)-3])
	f.Close()

	l2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tear is physically gone: append and reopen once more.
	if err := l2.Append([]byte("kept-3")); err != nil {
		t.Fatal(err)
	}
	l3, rec := reopen(t, l2, dir)
	defer l3.Close()
	want := []string{"kept-1", "kept-2", "kept-3"}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, w := range want {
		if string(rec.Records[i]) != w {
			t.Errorf("record %d = %q, want %q", i, rec.Records[i], w)
		}
	}
}

func TestLogBreaksOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 7, CrashAtOp: 4})
	l, _, err := Open(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("ok")); err != nil { // ops 1 (write) + 2 (sync)
		t.Fatal(err)
	}
	if err := l.Append([]byte("dies")); err == nil { // op 3 write, op 4 sync crashes
		t.Fatal("append survived the crash point")
	}
	if err := l.Append([]byte("after")); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("append after failure: %v, want ErrLogBroken", err)
	}
	if err := l.Snapshot([]byte("s")); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("snapshot after failure: %v, want ErrLogBroken", err)
	}
	// Reopening with a healthy FS recovers the acknowledged prefix.
	l2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Records) < 1 || string(rec.Records[0]) != "ok" {
		t.Fatalf("acknowledged record lost: %q", rec.Records)
	}
}

func TestLogInstrument(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	l.Instrument(reg)
	l.Append(bytes.Repeat([]byte("x"), 100))
	l.Snapshot([]byte("s"))
	snap := reg.Snapshot()
	if snap.Counters["store_wal_appends_total"] != 1 {
		t.Errorf("store_wal_appends_total = %d", snap.Counters["store_wal_appends_total"])
	}
	if got := snap.Counters["store_wal_bytes_total"]; got != 100+recordHeaderSize {
		t.Errorf("store_wal_bytes_total = %d, want %d", got, 100+recordHeaderSize)
	}
	if snap.Counters["store_snapshot_installs_total"] != 1 {
		t.Errorf("store_snapshot_installs_total = %d", snap.Counters["store_snapshot_installs_total"])
	}
	if snap.Histograms["store_fsync_seconds"].Count < 2 {
		t.Errorf("store_fsync_seconds count = %d, want >= 2 (append + snapshot)",
			snap.Histograms["store_fsync_seconds"].Count)
	}
}
