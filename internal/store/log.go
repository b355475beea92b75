package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Log is a write-ahead log with generation-numbered snapshots. One
// directory holds one log; the files are
//
//	wal.<G>   the append-only record file of generation G
//	snap.<G>  a snapshot of the owner's whole state, covering every
//	          record ever appended before wal.<G> existed
//
// Taking a snapshot advances the generation: snap.<G+1> is written
// (atomically, via tmp + rename + directory sync), a fresh empty
// wal.<G+1> is created, and the generation-G files are deleted.
// Because the snapshot lands durably before the new WAL exists,
// recovery never pairs a snapshot with records it already contains: it
// picks the highest valid snapshot and replays only that generation's
// WAL. A crash between the two steps simply leaves the old generation
// on disk to be ignored (and garbage-collected on the next snapshot).
//
// Append acknowledges a record only after write and fsync both
// succeed. Any append or snapshot failure leaves bytes of unknown
// integrity behind, so the log turns itself off (ErrLogBroken) rather
// than risk appending after a tear that would render later,
// acknowledged records unreachable to replay; the owner reopens, and
// recovery truncates the torn tail. This fail-stop behavior is what
// the crash-point matrix in crash_test.go sweeps.
type Log struct {
	dir string
	fs  FS

	mu      sync.Mutex
	wal     File
	gen     uint64
	broken  bool
	stats   Stats
	scratch []byte // reusable frame buffer

	// Observability hooks; nil (no-op) until Instrument is called.
	mAppends, mBytes, mSnapshots *obs.Counter
	hFsync                       *obs.Histogram
}

// Stats describes a log's activity since Open.
type Stats struct {
	// Gen is the current snapshot generation.
	Gen uint64
	// Appends and AppendedBytes count acknowledged records.
	Appends, AppendedBytes int64
	// SinceSnapshot counts appends since the last snapshot (including
	// those recovered from the WAL at open).
	SinceSnapshot int64
	// Snapshots counts snapshots taken.
	Snapshots int64
	// RecoveredRecords and TruncatedBytes describe the last recovery:
	// records replayed from the WAL, and torn-tail bytes discarded.
	RecoveredRecords, TruncatedBytes int64
}

// Recovered is what Open found on disk: the most recent
// valid snapshot (nil or empty means "empty base state") and every
// valid WAL record appended after it, in order.
type Recovered struct {
	Snapshot []byte
	Records  [][]byte
	// TruncatedBytes is the size of the torn tail discarded from the
	// WAL, zero after a clean shutdown.
	TruncatedBytes int64
}

// ErrLogBroken reports an append on a log that already failed an
// append or snapshot; the owner must reopen (recovery truncates the
// tear) before appending again.
var ErrLogBroken = errors.New("store: log broken by earlier write failure; reopen to recover")

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal.%d", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap.%d", gen))
}

// Open opens (creating if necessary) the log in dir over fs (nil for
// the real filesystem) and returns the recovered state. The caller
// applies Recovered to rebuild its in-memory state, then appends as it
// mutates.
func Open(dir string, fs FS) (*Log, *Recovered, error) {
	if fs == nil {
		fs = DefaultFS
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, fs: fs}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// scan lists the generations present in the directory.
func (l *Log) scan() (snapGens, walGens []uint64, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan %s: %w", l.dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		if g, ok := strings.CutPrefix(name, "snap."); ok {
			if n, err := strconv.ParseUint(g, 10, 64); err == nil {
				snapGens = append(snapGens, n)
			}
		}
		if g, ok := strings.CutPrefix(name, "wal."); ok {
			if n, err := strconv.ParseUint(g, 10, 64); err == nil {
				walGens = append(walGens, n)
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] > walGens[j] })
	return snapGens, walGens, nil
}

// recover selects the newest valid snapshot generation, replays its
// WAL up to the last valid record, truncates the torn tail, and opens
// the WAL for appending.
func (l *Log) recover() (*Recovered, error) {
	snapGens, walGens, err := l.scan()
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	gen := uint64(0)
	found := false
	for _, g := range snapGens {
		data, err := l.fs.ReadFile(snapPath(l.dir, g))
		if err != nil {
			continue
		}
		payload, n, err := DecodeRecord(data)
		if err != nil || n != len(data) {
			// A snapshot is written whole via tmp+rename, so a torn one
			// is disk corruption, not a crash artifact: fall back to
			// the previous generation.
			continue
		}
		rec.Snapshot = payload
		gen = g
		found = true
		break
	}
	if !found && len(walGens) > 0 {
		gen = walGens[0]
	}
	walFile := walPath(l.dir, gen)
	if data, err := l.fs.ReadFile(walFile); err == nil {
		payloads, valid := DecodeAll(data)
		rec.Records = payloads
		if int64(len(data)) > valid {
			rec.TruncatedBytes = int64(len(data)) - valid
			if err := l.fs.Truncate(walFile, valid); err != nil {
				return nil, fmt.Errorf("store: truncating torn tail of %s: %w", walFile, err)
			}
		}
	}
	wal, err := l.fs.OpenAppend(walFile)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", walFile, err)
	}
	l.wal = wal
	l.gen = gen
	l.stats.Gen = gen
	l.stats.SinceSnapshot = int64(len(rec.Records))
	l.stats.RecoveredRecords = int64(len(rec.Records))
	l.stats.TruncatedBytes = rec.TruncatedBytes
	return rec, nil
}

// Instrument routes log activity into reg's store-wide metrics:
// store_wal_appends_total, store_wal_bytes_total, the
// store_fsync_seconds histogram, and store_snapshot_installs_total.
// Several logs in one process (ad store, claim journal)
// share the same counters; the totals are pool-wide.
func (l *Log) Instrument(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mAppends = reg.Counter("store_wal_appends_total")
	l.mBytes = reg.Counter("store_wal_bytes_total")
	l.mSnapshots = reg.Counter("store_snapshot_installs_total")
	l.hFsync = reg.Histogram("store_fsync_seconds", obs.DurationBuckets)
}

// Append writes one record and returns only after it is durable: a
// nil error is the acknowledgment that the record will survive a
// crash. Any failure breaks the log (see ErrLogBroken).
func (l *Log) Append(record []byte) error {
	if len(record) > MaxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds MaxRecord", len(record))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return ErrLogBroken
	}
	l.scratch = EncodeRecord(l.scratch[:0], record)
	if _, err := l.wal.Write(l.scratch); err != nil {
		l.broken = true
		return fmt.Errorf("store: append: %w", err)
	}
	start := time.Now() //determguard:ok fsync-latency telemetry only; observed duration never enters replayed state
	if err := l.wal.Sync(); err != nil {
		l.broken = true
		return fmt.Errorf("store: append fsync: %w", err)
	}
	l.hFsync.Observe(time.Since(start).Seconds()) //determguard:ok fsync-latency telemetry only
	l.stats.Appends++
	l.stats.SinceSnapshot++
	l.stats.AppendedBytes += int64(len(l.scratch))
	l.mAppends.Inc()
	l.mBytes.Add(int64(len(l.scratch)))
	return nil
}

// Snapshot durably records the owner's whole state and starts a fresh
// generation; the WAL records folded into state no longer replay. On
// return the log is at generation Gen+1 with an empty WAL.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return ErrLogBroken
	}
	return l.installLocked(state)
}

// installLocked writes a new generation: snap.<G+1> holding state and
// an empty wal.<G+1>, then retires generation G. The snapshot rename is the commit point; any failure after it
// breaks the log so the owner reopens into the new generation.
func (l *Log) installLocked(state []byte) error {
	g1 := l.gen + 1
	tmp := snapPath(l.dir, g1) + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	frame := EncodeRecord(nil, state)
	if _, err := f.Write(frame); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	start := time.Now() //determguard:ok fsync-latency telemetry only; observed duration never enters replayed state
	if err := f.Sync(); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("store: snapshot fsync: %w", err)
	}
	l.hFsync.Observe(time.Since(start).Seconds()) //determguard:ok fsync-latency telemetry only
	if err := f.Close(); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := l.fs.Rename(tmp, snapPath(l.dir, g1)); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// The rename is the commit point: from here on, failures leave the
	// log broken (recovery picks up the new generation).
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.broken = true
		return fmt.Errorf("store: snapshot dir sync: %w", err)
	}
	wf, err := l.fs.Create(walPath(l.dir, g1))
	if err != nil {
		l.broken = true
		return fmt.Errorf("store: new wal: %w", err)
	}
	if err := wf.Sync(); err != nil {
		wf.Close()
		l.broken = true
		return fmt.Errorf("store: new wal fsync: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		wf.Close()
		l.broken = true
		return fmt.Errorf("store: new wal dir sync: %w", err)
	}
	old := l.gen
	if l.wal != nil {
		l.wal.Close()
	}
	l.wal = wf
	l.gen = g1
	l.stats.Gen = g1
	l.stats.SinceSnapshot = 0
	l.stats.Snapshots++
	l.mSnapshots.Inc()
	// Retire the old generation; failures here are garbage, not risk.
	l.fs.Remove(snapPath(l.dir, old))
	l.fs.Remove(walPath(l.dir, old))
	return nil
}

// SinceSnapshot reports how many records the current WAL holds; owners
// use it to decide when to fold state into a snapshot.
func (l *Log) SinceSnapshot() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.SinceSnapshot
}

// Stats reports the log's activity.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close releases the WAL handle. The log is already durable record by
// record; Close loses nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	l.broken = true
	return err
}
