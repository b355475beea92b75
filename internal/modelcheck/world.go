package modelcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/classad/analysis"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/obs"
	"repro/internal/pool"
)

// MachineSpec describes one resource in the model pool.
type MachineSpec struct {
	// Name must match the Name attribute of Ad.
	Name string
	// Ad is the machine's base classad in source syntax: capabilities
	// plus Constraint/Rank policy. The world builds a real
	// agent.Resource around it, so claim-time revalidation, ticket
	// minting and preemption all run the shipped code.
	Ad string
}

// JobSpec describes one request in the model pool.
type JobSpec struct {
	// Name must match the Name attribute of Ad (owner/job convention).
	Name string
	// Owner is the fair-share principal charged for the job's claims.
	Owner string
	// Ad is the job's classad in source syntax.
	Ad string
	// Work is how many complete() steps the job needs once running.
	// -1 marks a job that never finishes — environment, not a
	// liveness obligation (it models a long-running incumbent).
	Work int
	// Delay defers the job's arrival under the fair scheduler: it
	// stays out of the pool for the first Delay rounds. The DFS
	// explorer ignores it (arrival order is part of the explored
	// nondeterminism there).
	Delay int
}

// Hooks are the seeded mutations the self-test flips on to prove the
// checker catches the bug class each invariant guards. All off in a
// faithful model.
type Hooks struct {
	// DisableEpochFence makes the model customer accept MATCH
	// notifications bearing stale epochs — the bug MC102 exists to
	// catch.
	DisableEpochFence bool
	// DropClaimRequeue loses a job whose claim bounced instead of
	// requeueing it — the starvation bug MC201 exists to catch.
	DropClaimRequeue bool
	// DoubleCharge bills two units per acknowledged claim — the
	// ledger bug MC104 exists to catch.
	DoubleCharge bool
}

// Config is one model-checking scenario: the pool's cast and the
// exploration bounds.
type Config struct {
	Machines    []MachineSpec
	Jobs        []JobSpec
	Negotiators []string
	// MaxTicks bounds how many times a schedule may advance the pool
	// clock past the lease deadline (each tick is an opportunity for
	// negotiator takeover).
	MaxTicks int
	// MaxDepth bounds schedule length for the DFS explorer; 0 selects
	// a default of 8 actions.
	MaxDepth int
	// MaxSchedules truncates exploration after this many schedules
	// (0 = unbounded); Result.Truncated reports whether it bit.
	MaxSchedules int
	// StopOnViolation ends exploration at the first counterexample
	// instead of collecting one per invariant code.
	StopOnViolation bool
	// EngineHooks seeds the engines' IncrementalHooks mutants; the
	// MC201 regression test sets LegacyClaimedTieBreak (the pre-fix
	// selection order that ignored claimed state on rank ties) and
	// StopBeforeTies (a scan that never tries a claimed offer's idle
	// twin) to rediscover the claimed-offer livelock mechanically.
	EngineHooks matchmaker.IncrementalHooks
	Hooks       Hooks
}

// Action is one deterministic step of a schedule. Actions are stable
// across replays of the same Config, so a counterexample schedule
// reproduces exactly.
type Action struct {
	// Op is one of tick, advertise, submit, negotiate, deliver,
	// complete.
	Op string
	// Arg indexes the machine (advertise), job (submit, complete),
	// negotiator (negotiate) or pending message (deliver); unused for
	// tick.
	Arg int
}

func (a Action) String() string {
	if a.Op == "tick" {
		return "tick"
	}
	return fmt.Sprintf("%s(%d)", a.Op, a.Arg)
}

// Violation is one invariant breach, with the schedule that reproduces
// it and the replayed trace of what each step did.
type Violation struct {
	Code     string
	Detail   string
	Schedule []Action
	Trace    []string
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Code, v.Detail)
}

// job lifecycle in the model. A job has at most one outstanding MATCH
// message: matching removes its request ad from the pool, and only a
// requeue puts it back.
type jobStatus int

const (
	jobIdle jobStatus = iota
	jobAdvertised
	jobMatched
	jobRunning
	jobLimbo // DropClaimRequeue mutant: lost, never requeued
	jobDone
)

var jobStatusNames = [...]string{"idle", "advertised", "matched", "running", "limbo", "done"}

// message is one MATCH notification in flight from a negotiator to
// the model customer.
type message struct {
	job, machine int
	epoch        uint64
	ticket       string
	neg          string
}

// system is the immutable, validated form of a Config: base ads
// parsed once, copied into every replayed world.
type system struct {
	cfg          *Config
	machineProto []*classad.Ad
	jobProto     []*classad.Ad
	// machineIndex and jobIndex map a (folded) ad name back to its
	// position in cfg, for the matches the engine hands out.
	machineIndex, jobIndex map[string]int
}

func newSystem(cfg *Config) (*system, error) {
	s := &system{cfg: cfg, machineIndex: map[string]int{}, jobIndex: map[string]int{}}
	if len(cfg.Machines) == 0 || len(cfg.Jobs) == 0 || len(cfg.Negotiators) == 0 {
		return nil, fmt.Errorf("modelcheck: config needs at least one machine, job and negotiator")
	}
	for _, m := range cfg.Machines {
		ad, err := classad.Parse(m.Ad)
		if err != nil {
			return nil, fmt.Errorf("machine %s: %v", m.Name, err)
		}
		if name, _ := ad.Eval(classad.AttrName).StringVal(); name != m.Name {
			return nil, fmt.Errorf("machine %s: ad Name = %q", m.Name, name)
		}
		s.machineIndex[classad.Fold(m.Name)] = len(s.machineProto)
		s.machineProto = append(s.machineProto, ad)
	}
	for _, j := range cfg.Jobs {
		ad, err := classad.Parse(j.Ad)
		if err != nil {
			return nil, fmt.Errorf("job %s: %v", j.Name, err)
		}
		if name, _ := ad.Eval(classad.AttrName).StringVal(); name != j.Name {
			return nil, fmt.Errorf("job %s: ad Name = %q", j.Name, name)
		}
		s.jobIndex[classad.Fold(j.Name)] = len(s.jobProto)
		s.jobProto = append(s.jobProto, ad)
	}
	return s, nil
}

// machineState is the model's view of one resource, alongside the
// real agent.Resource that owns the authoritative claim state.
type machineState struct {
	res *agent.Resource
	// advertised is whether the machine's ad is in the store.
	advertised bool
	// ticket is the live authorization ticket ("" once consumed by a
	// granted claim), mirroring the agent's private copy.
	ticket string
	// runningJob is the model's claim bookkeeping (-1 = unclaimed),
	// cross-checked against the agent every step (MC103).
	runningJob int
}

type jobState struct {
	st        jobStatus
	machine   int // when running
	remaining int // work units left
}

// negotiatorState is one negotiator as production runs it: a
// matchmaker, its negotiation engine, and the engine's subscription to
// the store's change feed.
type negotiatorState struct {
	mm  *matchmaker.Matchmaker
	eng *matchmaker.Incremental
	sub *collector.Subscription
}

// World is one concrete execution of a scenario: real collector,
// negotiation engines and resource agents, plus the model's
// bookkeeping of everything an invariant needs to observe.
type World struct {
	sys   *system
	clock int64
	ticks int
	env   *classad.Env

	store *collector.Store
	usage *matchmaker.PriorityTable
	negs  map[string]*negotiatorState

	machines []*machineState
	jobs     []*jobState
	pending  []message

	// caHigh is the model customer's epoch high-water mark — the
	// fencing state cadaemon keeps as highestEpoch.
	caHigh uint64
	// epochHolders records which negotiator won each lease epoch
	// (MC101: at most one per epoch).
	epochHolders map[uint64]string

	// charges and acks are the raw MC104 ledger: units billed vs
	// claims acknowledged. The PriorityTable decays, so conservation
	// is checked on these counters, not on it.
	charges int
	acks    int

	cycleSeq   int
	violations []*Violation
	codeSeen   map[string]bool
	trace      []string

	// o instruments replays used for trace rendering; nil during
	// exploration (events and spans cost time the DFS cannot spare).
	o *obs.Obs
}

// newWorld builds a fresh world at the scenario's initial state.
func (s *system) newWorld(o *obs.Obs) *World {
	w := &World{
		sys:          s,
		clock:        1000,
		epochHolders: map[uint64]string{},
		codeSeen:     map[string]bool{},
		negs:         map[string]*negotiatorState{},
		o:            o,
	}
	w.env = &classad.Env{
		Now:  func() int64 { return w.clock },
		Rand: func() float64 { return 0.5 },
	}
	w.store = collector.New(w.env)
	w.usage = matchmaker.NewPriorityTable()
	for _, neg := range s.cfg.Negotiators {
		mm := matchmaker.New(matchmaker.Config{Env: w.env})
		mm.SetUsage(w.usage)
		if o != nil {
			mm.Instrument(o)
		}
		eng := matchmaker.NewIncremental(mm)
		eng.Hooks = s.cfg.EngineHooks
		w.negs[neg] = &negotiatorState{mm: mm, eng: eng, sub: w.store.Subscribe()}
	}
	for i := range s.cfg.Machines {
		w.machines = append(w.machines, &machineState{
			res:        agent.NewResource(s.machineProto[i].Copy(), w.env),
			runningJob: -1,
		})
	}
	for i := range s.cfg.Jobs {
		w.jobs = append(w.jobs, &jobState{machine: -1, remaining: s.cfg.Jobs[i].Work})
	}
	return w
}

// enabled enumerates the actions available from the current state, in
// a deterministic order (the DFS's branching structure).
func (w *World) enabled() []Action {
	var out []Action
	if w.ticks < w.sys.cfg.MaxTicks {
		out = append(out, Action{Op: "tick"})
	}
	for i := range w.machines {
		out = append(out, Action{Op: "advertise", Arg: i})
	}
	for i, j := range w.jobs {
		if j.st == jobIdle {
			out = append(out, Action{Op: "submit", Arg: i})
		}
	}
	for i := range w.sys.cfg.Negotiators {
		out = append(out, Action{Op: "negotiate", Arg: i})
	}
	for k := range w.pending {
		out = append(out, Action{Op: "deliver", Arg: k})
	}
	for i, j := range w.jobs {
		if j.st == jobRunning && w.sys.cfg.Jobs[i].Work >= 0 {
			out = append(out, Action{Op: "complete", Arg: i})
		}
	}
	return out
}

func (w *World) tracef(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf(format, args...))
}

func (w *World) emit(typ, cycle string, fields map[string]string) {
	if w.o != nil {
		w.o.Events().Emit("modelcheck", typ, cycle, fields)
	}
}

func (w *World) violate(code, format string, args ...any) {
	if w.codeSeen[code] {
		return
	}
	w.codeSeen[code] = true
	v := &Violation{Code: code, Detail: fmt.Sprintf(format, args...)}
	w.violations = append(w.violations, v)
	w.tracef("VIOLATION %s: %s", code, v.Detail)
	w.emit("violation", "", map[string]string{"code": code, "detail": v.Detail})
}

// apply executes one action and re-checks the safety invariants.
func (w *World) apply(a Action) {
	switch a.Op {
	case "tick":
		w.ticks++
		w.clock += collector.DefaultLeaseTTL + 1
		w.tracef("tick: clock advances past the lease deadline (t=%d)", w.clock)
	case "advertise":
		w.advertiseMachine(a.Arg)
	case "submit":
		w.submitJob(a.Arg)
	case "negotiate":
		w.negotiate(a.Arg)
	case "deliver":
		w.deliver(a.Arg)
	case "complete":
		w.complete(a.Arg)
	default:
		panic("modelcheck: unknown action " + a.Op)
	}
	w.checkInvariants()
}

func (w *World) advertiseMachine(i int) {
	m := w.machines[i]
	name := w.sys.cfg.Machines[i].Name
	ad, err := m.res.Advertise()
	if err != nil {
		panic(fmt.Sprintf("modelcheck: advertise %s: %v", name, err))
	}
	if err := w.store.Update(ad, 0); err != nil {
		panic(fmt.Sprintf("modelcheck: store %s: %v", name, err))
	}
	m.ticket, _ = ad.Eval(classad.AttrTicket).StringVal()
	m.advertised = true
	state, _ := ad.Eval("State").StringVal()
	w.tracef("advertise machine %s: State=%s, fresh ticket", name, state)
	w.emit("advertise", "", map[string]string{"machine": name, "state": state})
}

func (w *World) submitJob(i int) {
	name := w.sys.cfg.Jobs[i].Name
	if err := w.store.Update(w.sys.jobProto[i].Copy(), 0); err != nil {
		panic(fmt.Sprintf("modelcheck: store %s: %v", name, err))
	}
	w.jobs[i].st = jobAdvertised
	w.tracef("submit job %s: request ad enters the pool", name)
	w.emit("submit", "", map[string]string{"job": name})
}

func (w *World) negotiate(ni int) {
	neg := w.sys.cfg.Negotiators[ni]
	lease, granted, err := w.store.AcquireLease(neg, 0)
	if err != nil {
		panic(fmt.Sprintf("modelcheck: lease: %v", err))
	}
	if !granted {
		w.tracef("negotiate %s: lease refused (held by %s until t=%d, epoch %d)",
			neg, lease.Holder, lease.Deadline, lease.Epoch)
		return
	}
	if prev, ok := w.epochHolders[lease.Epoch]; ok && prev != neg {
		w.violate(CodeSingleLeader, "epoch %d granted to both %s and %s", lease.Epoch, prev, neg)
	} else {
		w.epochHolders[lease.Epoch] = neg
	}

	// The cycle the pool driver runs: bring this negotiator's engine up
	// to date from its change feed, then recompute the assignment.
	n := w.negs[neg]
	w.store.Prune()
	pool.FeedFromStore(n.eng, w.store, n.sub)
	w.cycleSeq++
	cycle := fmt.Sprintf("mc%03d", w.cycleSeq)
	matches, stats := n.eng.Recompute(cycle)
	w.tracef("negotiate %s (epoch %d, cycle %s): %d requests x %d offers -> %d matches",
		neg, lease.Epoch, cycle, stats.Requests, stats.Offers, len(matches))
	for _, match := range matches {
		ji := w.sys.jobIndex[classad.Fold(nameOf(match.Request))]
		mi := w.sys.machineIndex[classad.Fold(nameOf(match.Offer))]
		jobName := w.sys.cfg.Jobs[ji].Name
		machName := w.sys.cfg.Machines[mi].Name
		// MC105 oracle: the bilateral analyzer must not be able to
		// prove the emitted pair unsatisfiable.
		if rep := analysis.AnalyzeMatch(match.Request, match.Offer, &analysis.Options{Env: w.env}); rep.NeverMatch {
			w.violate(CodeUnsatisfiableMatch,
				"match %s -> %s is provably unsatisfiable: %v", jobName, machName, rep.Diags())
		}
		ticket, _ := match.Offer.Eval(classad.AttrTicket).StringVal()
		w.pending = append(w.pending, message{
			job: ji, machine: mi, epoch: lease.Epoch, ticket: ticket, neg: neg,
		})
		w.jobs[ji].st = jobMatched
		w.store.Invalidate(jobName)
		w.tracef("  MATCH %s -> %s (epoch %d) queued for delivery", jobName, machName, lease.Epoch)
		w.emit("match_sent", cycle, map[string]string{
			"job": jobName, "machine": machName,
			"epoch": fmt.Sprintf("%d", lease.Epoch), "negotiator": neg,
		})
	}
}

func (w *World) deliver(k int) {
	msg := w.pending[k]
	w.pending = append(w.pending[:k:k], w.pending[k+1:]...)
	jobName := w.sys.cfg.Jobs[msg.job].Name
	machName := w.sys.cfg.Machines[msg.machine].Name

	// The model customer's epoch fence, mirroring cadaemon: a MATCH
	// below the high-water mark comes from a deposed leader.
	stale := msg.epoch < w.caHigh
	if msg.epoch > w.caHigh {
		w.caHigh = msg.epoch
	}
	if stale && !w.sys.cfg.Hooks.DisableEpochFence {
		w.tracef("deliver MATCH %s -> %s: fenced, epoch %d < high-water %d; job requeued",
			jobName, machName, msg.epoch, w.caHigh)
		w.emit("match_fenced", "", map[string]string{
			"job": jobName, "epoch": fmt.Sprintf("%d", msg.epoch),
			"high": fmt.Sprintf("%d", w.caHigh),
		})
		w.requeue(msg.job)
		return
	}

	out := w.machines[msg.machine].res.RequestClaim(w.sys.jobProto[msg.job].Copy(), msg.ticket)
	if !out.Accepted {
		if w.sys.cfg.Hooks.DropClaimRequeue {
			w.jobs[msg.job].st = jobLimbo
			w.tracef("deliver MATCH %s -> %s: claim rejected (%s); job DROPPED (mutant)",
				jobName, machName, out.Reason)
		} else {
			w.requeue(msg.job)
			w.tracef("deliver MATCH %s -> %s: claim rejected (%s); job requeued",
				jobName, machName, out.Reason)
		}
		w.emit("claim_rejected", "", map[string]string{
			"job": jobName, "machine": machName, "reason": out.Reason,
		})
		return
	}

	if stale {
		w.violate(CodeStaleEpochClaim,
			"claim %s -> %s granted from MATCH with stale epoch %d (high-water %d)",
			jobName, machName, msg.epoch, w.caHigh)
	}
	w.acks++
	charge := 1
	if w.sys.cfg.Hooks.DoubleCharge {
		charge = 2
	}
	w.charges += charge
	w.usage.Record(w.sys.cfg.Jobs[msg.job].Owner, float64(charge))

	m := w.machines[msg.machine]
	if prev := m.runningJob; prev >= 0 {
		if out.Preempted == nil {
			w.violate(CodeClaimExclusive,
				"machine %s granted %s while %s still holds the claim, with no preemption",
				machName, jobName, w.sys.cfg.Jobs[prev].Name)
		} else {
			w.requeue(prev)
			w.tracef("  claim of %s preempted by %s", w.sys.cfg.Jobs[prev].Name, jobName)
		}
	}
	m.runningJob = msg.job
	m.ticket = "" // consumed by the grant, as in the agent
	w.jobs[msg.job].st = jobRunning
	w.jobs[msg.job].machine = msg.machine
	w.tracef("deliver MATCH %s -> %s: claim GRANTED (epoch %d), owner %s charged %d",
		jobName, machName, msg.epoch, w.sys.cfg.Jobs[msg.job].Owner, charge)
	w.emit("claim_granted", "", map[string]string{
		"job": jobName, "machine": machName, "epoch": fmt.Sprintf("%d", msg.epoch),
	})
}

func (w *World) complete(i int) {
	j := w.jobs[i]
	name := w.sys.cfg.Jobs[i].Name
	j.remaining--
	if j.remaining > 0 {
		w.tracef("complete %s: %d work units left", name, j.remaining)
		return
	}
	m := w.machines[j.machine]
	if err := m.res.Release(w.sys.cfg.Jobs[i].Owner); err != nil {
		panic(fmt.Sprintf("modelcheck: release %s: %v", name, err))
	}
	m.runningJob = -1
	j.st = jobDone
	j.machine = -1
	w.tracef("complete %s: done, claim released", name)
	w.emit("complete", "", map[string]string{"job": name})
}

// requeue returns a matched-or-evicted job to the idle state; a
// subsequent submit action puts its request ad back in the pool.
func (w *World) requeue(ji int) {
	j := w.jobs[ji]
	j.st = jobIdle
	j.machine = -1
}

// checkInvariants runs the safety checks that hold in every state.
func (w *World) checkInvariants() {
	// MC103: the model's claim bookkeeping and the agents' claim state
	// must agree, and no machine runs two jobs.
	for i, m := range w.machines {
		claim, held := m.res.CurrentClaim()
		switch {
		case m.runningJob >= 0 && !held:
			w.violate(CodeClaimExclusive, "model says %s runs %s but the agent holds no claim",
				w.sys.cfg.Machines[i].Name, w.sys.cfg.Jobs[m.runningJob].Name)
		case m.runningJob >= 0 && claim.Customer != w.sys.cfg.Jobs[m.runningJob].Owner:
			w.violate(CodeClaimExclusive, "machine %s claims customer %s but the model runs %s",
				w.sys.cfg.Machines[i].Name, claim.Customer, w.sys.cfg.Jobs[m.runningJob].Name)
		}
	}
	// MC104: charges and acknowledgments stay one for one.
	if w.charges != w.acks {
		w.violate(CodeLedgerConservation,
			"%d units charged against %d acknowledged claims", w.charges, w.acks)
	}
}

// fingerprint canonicalizes the world state for DFS pruning. Tickets
// are random per replay, so they appear only as live/stale relative to
// each machine's current ticket; the lease deadline appears only as an
// expired bit (one tick always expires any live lease, so the bit
// captures everything future behavior depends on). Observability
// artifacts are excluded.
func (w *World) fingerprint() string {
	var b strings.Builder
	lease := w.store.LeaseInfo()
	fmt.Fprintf(&b, "t%d|L%s/%d/%v|H%d|c%d|a%d|",
		w.ticks, lease.Holder, lease.Epoch, lease.Deadline > w.clock, w.caHigh, w.charges, w.acks)
	for i, m := range w.machines {
		fmt.Fprintf(&b, "m%d:%d:", i, m.runningJob)
		if !m.advertised {
			b.WriteString("-|")
			continue
		}
		ad, ok := w.store.Lookup(w.sys.cfg.Machines[i].Name)
		if !ok {
			b.WriteString("x|")
			continue
		}
		b.WriteString(canonAd(ad, m.ticket))
		b.WriteByte('|')
	}
	for i, j := range w.jobs {
		fmt.Fprintf(&b, "j%d:%s:%d:%d|", i, jobStatusNames[j.st], j.machine, j.remaining)
	}
	msgs := make([]string, 0, len(w.pending))
	for _, msg := range w.pending {
		live := msg.ticket != "" && msg.ticket == w.machines[msg.machine].ticket
		msgs = append(msgs, fmt.Sprintf("%d>%d@%d/%v", msg.job, msg.machine, msg.epoch, live))
	}
	sort.Strings(msgs)
	b.WriteString(strings.Join(msgs, ","))
	return b.String()
}

// canonAd renders an ad with the authorization ticket normalized to
// live/stale against the machine's current ticket.
func canonAd(ad *classad.Ad, liveTicket string) string {
	var b strings.Builder
	for _, n := range ad.SortedNames() {
		e, _ := ad.Lookup(n)
		b.WriteString(classad.Fold(n))
		b.WriteByte('=')
		if classad.Fold(n) == classad.Fold(classad.AttrTicket) {
			t, _ := ad.Eval(classad.AttrTicket).StringVal()
			if t != "" && t == liveTicket {
				b.WriteString("<live>")
			} else {
				b.WriteString("<stale>")
			}
		} else {
			b.WriteString(e.String())
		}
		b.WriteByte(';')
	}
	return b.String()
}

// nameOf reads the Name every ad in the model pool carries (newSystem
// checked it).
func nameOf(ad *classad.Ad) string {
	name, _ := ad.Eval(classad.AttrName).StringVal()
	return name
}
