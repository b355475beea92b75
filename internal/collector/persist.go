package collector

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/classad"
	"repro/internal/store"
)

// Durable collector state. The paper's pool manager keeps the
// advertisement store in memory and leans on the advertising
// protocol's weak consistency to rebuild it after a restart: every
// agent re-advertises within one period, so the store converges again
// (paper §4.3). That still leaves a window — up to a full advertising
// period — in which the restarted pool manager matches against an
// empty or partial pool, and it loses state that is *not* rebuilt by
// re-advertising: the negotiator leadership lease and its fencing
// epoch. A collector opened with OpenDurable journals every mutation
// through a store.Log, so a restart recovers the exact pre-crash ad
// set (stale ads simply re-expire on replay, their absolute deadlines
// having been persisted) and, critically, the lease epoch keeps its
// monotonicity across crashes.

// persistSnapshotEvery bounds WAL growth: once this many records have
// accumulated since the last snapshot, the next mutation folds the
// whole store into a fresh one.
const persistSnapshotEvery = 512

// Journal operation names.
const (
	opUpdate     = "update"
	opInvalidate = "invalidate"
	opLease      = "lease"
)

// persistRecord is one journaled mutation.
type persistRecord struct {
	Op string `json:"op"`
	// Update: the ad in source syntax, its absolute expiry
	// (0 = never expires), and the advertiser's sequence number
	// (0 = not sequence-aware; a post-recovery delta then mismatches
	// and the advertiser falls back to a full ADVERTISE).
	Ad      string `json:"ad,omitempty"`
	Expires int64  `json:"expires,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	// Invalidate: the withdrawn name.
	Name string `json:"name,omitempty"`
	// Lease: the full post-transition lease state.
	Holder   string `json:"holder,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Deadline int64  `json:"deadline,omitempty"`
}

// persistSnapshot is the whole-store image a WAL generation starts
// from.
type persistSnapshot struct {
	Ads   []persistAd `json:"ads"`
	Lease Lease       `json:"lease"`
}

type persistAd struct {
	Ad      string `json:"ad"`
	Expires int64  `json:"expires"`
	Seq     uint64 `json:"seq,omitempty"`
}

// OpenDurable opens (or creates) a durable store rooted at dir,
// replaying any surviving snapshot and WAL into memory. fs selects the
// filesystem (nil for the real one; tests inject a store.FaultFS).
// Expired ads are replayed too and pruned by their original absolute
// deadlines on first access, exactly as if the process had never died.
func OpenDurable(dir string, env *classad.Env, fs store.FS) (*Store, error) {
	s := New(env)
	l, rec, err := store.Open(dir, fs)
	if err != nil {
		return nil, err
	}
	if len(rec.Snapshot) > 0 {
		var snap persistSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("collector: corrupt snapshot: %w", err)
		}
		for _, pa := range snap.Ads {
			if err := s.replayUpdate(pa.Ad, pa.Expires, pa.Seq); err != nil {
				l.Close()
				return nil, err
			}
		}
		s.lease = snap.Lease
	}
	for _, raw := range rec.Records {
		var r persistRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			l.Close()
			return nil, fmt.Errorf("collector: corrupt journal record: %w", err)
		}
		switch r.Op {
		case opUpdate:
			if err := s.replayUpdate(r.Ad, r.Expires, r.Seq); err != nil {
				l.Close()
				return nil, err
			}
		case opInvalidate:
			delete(s.ads, classad.Fold(r.Name))
		case opLease:
			s.lease = Lease{Holder: r.Holder, Epoch: r.Epoch, Deadline: r.Deadline}
		default:
			l.Close()
			return nil, fmt.Errorf("collector: unknown journal op %q", r.Op)
		}
	}
	s.log = l
	return s, nil
}

// replayUpdate applies a journaled (or snapshotted) advertisement
// without re-journaling it.
func (s *Store) replayUpdate(src string, expires int64, seq uint64) error {
	ad, err := classad.Parse(src)
	if err != nil {
		return fmt.Errorf("collector: corrupt journaled ad: %w", err)
	}
	name, err := NameOf(ad)
	if err != nil {
		return fmt.Errorf("collector: journaled ad lost its name: %w", err)
	}
	s.putLocked(classad.Fold(name), entry{ad: ad, expires: expires, seq: seq})
	return nil
}

// journalUpdateLocked journals one stored advertisement. The ad is
// unparsed only here, and only when there is a journal to write it to.
// The caller holds s.mu.
func (s *Store) journalUpdateLocked(ad *classad.Ad, expires int64, seq uint64) error {
	if s.log == nil {
		return nil
	}
	return s.journalLocked(persistRecord{Op: opUpdate, Ad: ad.String(), Expires: expires, Seq: seq})
}

// journalLocked appends one mutation record, folding the store into a
// fresh snapshot when the WAL has grown past the policy threshold. The
// caller holds s.mu. On a non-durable store it is a no-op. Append
// errors are fail-stop (store.ErrLogBroken thereafter): the caller
// must treat the mutation as unacknowledged.
func (s *Store) journalLocked(r persistRecord) error {
	if s.log == nil {
		return nil
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("collector: journal encode: %w", err)
	}
	if err := s.log.Append(raw); err != nil {
		s.persistErr = err
		return err
	}
	if s.log.SinceSnapshot() >= persistSnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			s.persistErr = err
			return err
		}
	}
	return nil
}

// snapshotLocked folds the live store into a new snapshot generation.
// The caller holds s.mu.
func (s *Store) snapshotLocked() error {
	s.pruneLocked()
	snap := persistSnapshot{Lease: s.lease, Ads: make([]persistAd, 0, len(s.ads))}
	for _, e := range s.ads {
		snap.Ads = append(snap.Ads, persistAd{Ad: e.ad.String(), Expires: e.expires, Seq: e.seq})
	}
	// Canonical order: map iteration must not leak into the snapshot
	// bytes, or two stores with identical contents persist differently.
	sort.Slice(snap.Ads, func(i, j int) bool { return snap.Ads[i].Seq < snap.Ads[j].Seq })
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("collector: snapshot encode: %w", err)
	}
	return s.log.Snapshot(raw)
}

// Compact forces a snapshot immediately (tools and tests; the journal
// path snapshots automatically by policy). No-op when not durable.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.snapshotLocked()
}

// PersistErr reports the first persistence failure, if any. A durable
// store whose log broke keeps serving reads and in-memory writes, but
// mutations are no longer acknowledged as durable; the operator should
// restart it (recovery truncates the tear).
func (s *Store) PersistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErr
}

// LogStats reports the underlying journal's statistics; ok is false
// for an in-memory store.
func (s *Store) LogStats() (stats store.Stats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return store.Stats{}, false
	}
	return s.log.Stats(), true
}

// Close releases the journal (no-op for an in-memory store). The store
// must not be mutated afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
