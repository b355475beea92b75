// Package store is the framework's crash-safe persistence layer: a
// length-prefixed, checksummed append-only write-ahead log with
// periodic snapshots, generation-numbered so recovery never replays a
// record that a snapshot already folded in. The paper's matchmaker is
// deliberately soft-state — ads refresh, matches are introductions —
// but two pieces of pool state are worth keeping across restarts: the
// collector's advertisement store (so a restart does not blind the
// pool until the next heartbeat storm, and so fairness has memory: the
// negotiator's fair-share usage rides in its own ad there), and the
// customer agent's claim journal (so in-flight claims are re-verified
// instead of silently lost).
//
// The durability contract is narrow and testable: Append returns nil
// only after the record is written and fsynced, and recovery restores
// exactly a prefix of the attempted record sequence that includes
// every acknowledged record. A torn tail — the crash landed mid-write —
// is detected by checksum and truncated away. The whole layer runs
// over an FS interface so tests inject deterministic faults on every
// write, fsync and rename, in the spirit of internal/netx's fault
// plans.
package store

import (
	"io"
	"os"
)

// File is the writable-file surface the store needs: sequential
// writes, a durability barrier, close.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage. The store never
	// acknowledges a record before Sync returns nil.
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind the store, so tests
// substitute a fault-injecting implementation. All paths are absolute
// or relative to the process working directory, as with package os.
type FS interface {
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Create truncates or creates path for writing.
	Create(path string) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path (best-effort cleanup; a failure is not a
	// correctness problem, just garbage).
	Remove(path string) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir flushes directory metadata, making a completed Rename or
	// Create durable.
	SyncDir(dir string) error
	// ReadDir lists the names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// DefaultFS is the FS used when Options.FS is nil.
var DefaultFS FS = OSFS{}

func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (OSFS) Create(path string) (File, error) { return os.Create(path) }

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// SyncDir opens the directory and fsyncs it, the POSIX idiom that
// makes a rename or file creation durable. Platforms where directory
// fsync is unsupported report that via the returned error; callers
// treat it as fatal because the durability contract depends on it.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
