package pool

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/store"
)

// ClaimJournal persists a customer agent's claim lifecycle. The
// claiming protocol leaves the CA as the only party who knows which
// providers it is holding: the matchmaker forgot the match the moment
// it was made (the paper's stateless-matchmaker property), and the RA
// knows only that *someone* claimed it. A CA that crashes mid-flight
// therefore leaks claims — machines held by a dead customer until
// their ads expire — and forgets which running jobs it must later
// release. The journal records each transition as it happens:
//
//	begin(job, provider)   before the claim dial — outcome unknown; it
//	                       also records the job's trace, which a
//	                       re-submitted job no longer carries
//	grant(job)             the provider accepted; job is running there
//	abort(job)             the provider rejected / the dial failed
//	release(job)           the claim was relinquished (or preempted)
//	epoch(e)               a higher negotiator epoch was observed
//
// On restart the daemon reconciles (EnableJournal): claims still in
// "begin" have unknown outcomes, so the provider is sent an idempotent
// RELEASE and the job requeues; "granted" claims are restored so the
// job resumes running where it was. The journaled epoch keeps the
// match-fencing high-water mark across restarts — without it a
// restarted CA would accept a deposed negotiator's stale matches.

// claimSnapshotEvery bounds WAL growth: once this many records have
// accumulated, the next transition folds live state into a snapshot.
const claimSnapshotEvery = 128

// Claim phases.
const (
	PhaseClaiming = "claiming" // begin journaled, outcome unknown
	PhaseGranted  = "granted"  // provider accepted
)

// ClaimRecord is one live claim as the journal knows it.
type ClaimRecord struct {
	Job     int    `json:"job"`
	Machine string `json:"machine"`
	Contact string `json:"contact"`
	Phase   string `json:"phase"`
	Trace   string `json:"trace,omitempty"`
}

// claimOp is one journaled transition.
type claimOp struct {
	Op      string `json:"op"` // begin | grant | abort | release | epoch
	Job     int    `json:"job,omitempty"`
	Machine string `json:"machine,omitempty"`
	Contact string `json:"contact,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// claimSnapshot is the journal's whole-state image.
type claimSnapshot struct {
	Claims []ClaimRecord `json:"claims"`
	Epoch  uint64        `json:"epoch"`
}

// ClaimJournal couples the claim table to a store.Log. It keeps its
// own mirror of live claims so snapshots need no callback into the
// daemon.
type ClaimJournal struct {
	mu     sync.Mutex
	log    *store.Log
	claims map[int]ClaimRecord
	epoch  uint64
	err    error
}

// OpenClaimJournal opens (or creates) the journal at dir and replays
// surviving state. fs selects the filesystem (nil for the real one).
func OpenClaimJournal(dir string, fs store.FS) (*ClaimJournal, error) {
	l, rec, err := store.Open(dir, fs)
	if err != nil {
		return nil, err
	}
	j := &ClaimJournal{log: l, claims: make(map[int]ClaimRecord)}
	if len(rec.Snapshot) > 0 {
		var snap claimSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("pool: corrupt claim snapshot: %w", err)
		}
		for _, c := range snap.Claims {
			j.claims[c.Job] = c
		}
		j.epoch = snap.Epoch
	}
	for _, raw := range rec.Records {
		var op claimOp
		if err := json.Unmarshal(raw, &op); err != nil {
			l.Close()
			return nil, fmt.Errorf("pool: corrupt claim record: %w", err)
		}
		if !j.mirror(op) {
			l.Close()
			return nil, fmt.Errorf("pool: unknown claim op %q", op.Op)
		}
	}
	return j, nil
}

// mirror applies one transition to live state, reporting false for an
// unknown op.
func (j *ClaimJournal) mirror(op claimOp) bool {
	switch op.Op {
	case "begin":
		j.claims[op.Job] = ClaimRecord{
			Job: op.Job, Machine: op.Machine, Contact: op.Contact, Phase: PhaseClaiming, Trace: op.Trace,
		}
	case "grant":
		if c, ok := j.claims[op.Job]; ok {
			c.Phase = PhaseGranted
			j.claims[op.Job] = c
		}
	case "abort", "release":
		delete(j.claims, op.Job)
	case "epoch":
		if op.Epoch > j.epoch {
			j.epoch = op.Epoch
		}
	default:
		return false
	}
	return true
}

// Live returns the replayed (or current) claim set, sorted by job ID.
func (j *ClaimJournal) Live() []ClaimRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ClaimRecord, 0, len(j.claims))
	for _, c := range j.claims {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Job < out[b].Job })
	return out
}

// Epoch returns the highest negotiator epoch the journal has seen.
func (j *ClaimJournal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Begin journals a claim attempt, under the job's trace, before its
// dial; errors are fail-stop (the caller should not proceed with the
// dial, or the claim could be granted with no durable record).
func (j *ClaimJournal) Begin(job int, machine, contact, trace string) error {
	return j.apply(claimOp{Op: "begin", Job: job, Machine: machine, Contact: contact, Trace: trace})
}

// Grant journals a provider's acceptance.
func (j *ClaimJournal) Grant(job int) error { return j.apply(claimOp{Op: "grant", Job: job}) }

// Abort journals a rejected or failed claim attempt.
func (j *ClaimJournal) Abort(job int) error { return j.apply(claimOp{Op: "abort", Job: job}) }

// Release journals the relinquishment (or preemption, or completion)
// of a claim.
func (j *ClaimJournal) Release(job int) error { return j.apply(claimOp{Op: "release", Job: job}) }

// ObserveEpoch journals a newly observed negotiator epoch if it is
// higher than the journal's high-water mark, returning that mark.
func (j *ClaimJournal) ObserveEpoch(epoch uint64) (uint64, error) {
	j.mu.Lock()
	if epoch <= j.epoch {
		e := j.epoch
		j.mu.Unlock()
		return e, nil
	}
	j.mu.Unlock()
	if err := j.apply(claimOp{Op: "epoch", Epoch: epoch}); err != nil {
		return j.Epoch(), err
	}
	return epoch, nil
}

// apply journals one transition and mirrors it into live state.
func (j *ClaimJournal) apply(op claimOp) error {
	raw, err := json.Marshal(op)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.log.Append(raw); err != nil {
		j.err = err
		return err
	}
	j.mirror(op)
	if j.log.SinceSnapshot() >= claimSnapshotEvery {
		if err := j.snapshotLocked(); err != nil {
			j.err = err
			return err
		}
	}
	return nil
}

// snapshotLocked folds live state into a new snapshot generation; the
// caller holds j.mu.
func (j *ClaimJournal) snapshotLocked() error {
	snap := claimSnapshot{Epoch: j.epoch, Claims: make([]ClaimRecord, 0, len(j.claims))}
	for _, c := range j.claims {
		snap.Claims = append(snap.Claims, c)
	}
	sort.Slice(snap.Claims, func(a, b int) bool { return snap.Claims[a].Job < snap.Claims[b].Job })
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return j.log.Snapshot(raw)
}

// Err reports the first persistence failure (fail-stop thereafter).
func (j *ClaimJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats reports the underlying log's statistics.
func (j *ClaimJournal) Stats() store.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Stats()
}

// Close releases the log.
func (j *ClaimJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
