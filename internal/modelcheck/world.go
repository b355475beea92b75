package modelcheck

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/classad/analysis"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/protocol"
)

// MachineSpec describes one resource in the model pool.
type MachineSpec struct {
	// Name must match the Name attribute of Ad.
	Name string
	// Ad is the machine's base classad in source syntax: capabilities
	// plus Constraint/Rank policy. The world serves a real
	// pool.ResourceDaemon around it, so claim-time revalidation, ticket
	// minting, preemption and withdrawal all run the shipped code.
	Ad string
}

// JobSpec describes one request in the model pool. Its owner's
// customer agent names it: the n-th job of an owner, in Config order,
// is pool.JobName(owner, n).
type JobSpec struct {
	// Owner is the fair-share principal charged for the job's claims;
	// each distinct owner gets one pool.CustomerDaemon.
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
	// DaemonHooks seed the mutants of every negotiator, customer
	// daemon and resource daemon.
	DaemonHooks pool.Hooks
}

// maxLostReplies bounds the deliver_lost actions of one schedule.
const maxLostReplies = 1

// once is every conversation's retry policy, one attempt: nothing on
// the transport fails but what a schedule loses on purpose.
var once = netx.RetryPolicy{Attempts: 1}

// Action is one deterministic step of a schedule. Actions are stable
// across replays of the same Config, so a counterexample schedule
// reproduces exactly.
type Action struct {
	// Op is one of tick, advertise, submit, negotiate, deliver,
	// deliver_lost (a delivery whose CLAIM_REPLY the transport loses),
	// complete.
	Op string
	// Arg indexes the machine (advertise), job (submit, complete),
	// negotiator (negotiate) or pending message (deliver,
	// deliver_lost); unused for tick.
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

// message is one MATCH hand-off awaiting delivery: the notice
// negotiator neg's cycle built for job on machine.
type message struct {
	neg, job, machine int
	notice            *pool.Notice
}

// system is the immutable, validated form of a Config: base ads
// parsed once, copied into every replayed world.
type system struct {
	cfg          *Config
	machineProto []*classad.Ad
	jobProto     []*classad.Ad
	// owners are the distinct job owners in Config order, one customer
	// daemon each; jobCA and jobID place each job in its owner's queue,
	// and jobNames are the names its daemon advertises them under.
	owners       []string
	ownerIndex   map[string]int
	jobCA, jobID []int
	jobNames     []string
	// machineIndex and jobIndex map a (folded) ad name back to its
	// position in cfg, for the matches the engine hands out.
	machineIndex, jobIndex map[string]int
}

func newSystem(cfg *Config) (*system, error) {
	s := &system{cfg: cfg, machineIndex: map[string]int{}, jobIndex: map[string]int{}, ownerIndex: map[string]int{}}
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
	queued := map[string]int{}
	for i, j := range cfg.Jobs {
		ad, err := classad.Parse(j.Ad)
		if err != nil {
			return nil, fmt.Errorf("job %d of %s: %v", i, j.Owner, err)
		}
		ca, ok := s.ownerIndex[j.Owner]
		if !ok {
			ca = len(s.owners)
			s.ownerIndex[j.Owner] = ca
			s.owners = append(s.owners, j.Owner)
		}
		queued[j.Owner]++
		name := pool.JobName(j.Owner, queued[j.Owner])
		s.jobIndex[classad.Fold(name)] = i
		s.jobProto = append(s.jobProto, ad)
		s.jobCA = append(s.jobCA, ca)
		s.jobID = append(s.jobID, queued[j.Owner])
		s.jobNames = append(s.jobNames, name)
	}
	return s, nil
}

// live reports whether ticket is the one ra would honour now: tickets
// are random per replay, so the fingerprint records only this. The
// RA's challenge check answers it without a claim.
func live(ra *pool.ResourceDaemon, ticket string) bool {
	return ticket != "" && ra.RA.VerifyChallenge("live", protocol.Respond(ticket, "live"))
}

// World is one concrete execution of a scenario: a real collector
// store, a pool.Manager per negotiator over it, whose MATCH hand-offs
// the world queues, and customer and resource daemons talking over an
// in-process transport.
type World struct {
	sys   *system
	clock int64
	ticks int
	env   *classad.Env

	store *collector.Store
	negs  []*pool.Manager

	net      *netx.Transport
	sender   *netx.Dialer // the negotiators' MATCH sends
	cas      []*pool.CustomerDaemon
	machines []*pool.ResourceDaemon
	pending  []message
	lost     int

	// epochHolders records which negotiator won each lease epoch
	// (MC101: at most one per epoch).
	epochHolders map[uint64]string

	// The MC104 ledgers: the units the verdicts charged (the tables
	// decay, so conservation is checked on this sum), and the units the
	// last leader's last cycle published, which a new leader must load.
	charges int
	durable map[string]int

	violations []*Violation
	codeSeen   map[string]bool
	trace      []string
}

// newWorld builds a fresh world at the scenario's initial state, every
// job queued at its customer daemon. o, when set, instruments the
// negotiators and daemons for RenderTrace; exploration passes nil (the
// log costs time the DFS cannot spare).
func (s *system) newWorld(o *obs.Obs) *World {
	w := &World{
		sys:          s,
		clock:        1000,
		epochHolders: map[uint64]string{},
		codeSeen:     map[string]bool{},
		net:          netx.NewTransport(),
	}
	w.sender = w.net.Dialer()
	w.env = &classad.Env{
		Now:  func() int64 { return w.clock },
		Rand: func() float64 { return 0.5 },
	}
	w.store = collector.New(w.env)
	for i, name := range s.cfg.Negotiators {
		m := pool.NewManager(pool.ManagerConfig{
			Env: w.env, Store: w.store, HAName: name, Notifier: handoff{w, i}, Obs: o,
		})
		m.Hooks = s.cfg.DaemonHooks
		m.Engine().Hooks = s.cfg.EngineHooks
		w.negs = append(w.negs, m)
	}
	for _, owner := range s.owners {
		ca := pool.NewCustomerDaemon(agent.NewCustomer(owner, w.env), "", 0, nil)
		ca.Hooks = s.cfg.DaemonHooks
		ca.ConfigureNetwork(w.net.Dialer(), once)
		if o != nil {
			ca.Instrument(o)
		}
		ca.Serve(w.net.Listen("ca/" + owner))
		w.cas = append(w.cas, ca)
	}
	for i, spec := range s.cfg.Jobs {
		ad := s.jobProto[i].Copy()
		ad.SetString(classad.AttrTraceID, fmt.Sprintf("t%d", i))
		w.cas[s.jobCA[i]].CA.Submit(ad, float64(spec.Work))
	}
	for i, spec := range s.cfg.Machines {
		ra := pool.NewResourceDaemon(agent.NewResource(s.machineProto[i].Copy(), w.env), "", 0, nil)
		ra.Hooks = s.cfg.DaemonHooks
		ra.ConfigureNetwork(w.net.Dialer(), once)
		if o != nil {
			ra.Instrument(o)
		}
		ra.Serve(w.net.Listen("ra/" + spec.Name))
		w.machines = append(w.machines, ra)
	}
	return w
}

// job returns job i as its customer daemon's queue holds it.
func (w *World) job(i int) agent.Job {
	j, _ := w.cas[w.sys.jobCA[i]].CA.Job(w.sys.jobID[i])
	return j
}

// arrival is the request ad job i's customer daemon advertises for it,
// or nil while the job cannot arrive: its ad is in the pool, a MATCH
// for it is in flight, or its daemon advertises none for it.
func (w *World) arrival(i int) *classad.Ad {
	if _, pooled := w.store.Lookup(w.sys.jobNames[i]); pooled {
		return nil
	}
	for _, msg := range w.pending {
		if msg.job == i {
			return nil
		}
	}
	for _, ad := range w.cas[w.sys.jobCA[i]].RequestAds() {
		if name, _ := collector.NameOf(ad); name == w.sys.jobNames[i] {
			return ad
		}
	}
	return nil
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
	for i := range w.sys.cfg.Jobs {
		if w.arrival(i) != nil {
			out = append(out, Action{Op: "submit", Arg: i})
		}
	}
	for i := range w.sys.cfg.Negotiators {
		out = append(out, Action{Op: "negotiate", Arg: i})
	}
	for k := range w.pending {
		out = append(out, Action{Op: "deliver", Arg: k})
		if w.lost < maxLostReplies {
			out = append(out, Action{Op: "deliver_lost", Arg: k})
		}
	}
	for i, spec := range w.sys.cfg.Jobs {
		if spec.Work >= 0 && w.job(i).Status == agent.JobRunning {
			out = append(out, Action{Op: "complete", Arg: i})
		}
	}
	return out
}

func (w *World) tracef(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf(format, args...))
}

func (w *World) violate(code, format string, args ...any) {
	if w.codeSeen[code] {
		return
	}
	w.codeSeen[code] = true
	v := &Violation{Code: code, Detail: fmt.Sprintf(format, args...)}
	w.violations = append(w.violations, v)
	w.tracef("VIOLATION %s: %s", code, v.Detail)
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
		w.deliver(a.Arg, false)
	case "deliver_lost":
		w.deliver(a.Arg, true)
	case "complete":
		w.complete(a.Arg)
	default:
		panic("modelcheck: unknown action " + a.Op)
	}
	w.checkInvariants()
}

// advertiseMachine stores the ad the resource daemon advertises: its
// RA's ad, with a fresh ticket, and the daemon's Contact.
func (w *World) advertiseMachine(i int) {
	ra := w.machines[i]
	name := w.sys.cfg.Machines[i].Name
	ad, err := ra.RA.Advertise()
	if err != nil {
		panic(fmt.Sprintf("modelcheck: advertise %s: %v", name, err))
	}
	ad.SetString(classad.AttrContact, ra.Contact())
	if err := w.store.Update(ad, 0); err != nil {
		panic(fmt.Sprintf("modelcheck: store %s: %v", name, err))
	}
	w.tracef("advertise machine %s: State=%s, fresh ticket", name, ra.RA.State())
}

// submitJob stores the request ad the customer daemon advertises for
// job i.
func (w *World) submitJob(i int) {
	name := w.sys.jobNames[i]
	if err := w.store.Update(w.arrival(i), 0); err != nil {
		panic(fmt.Sprintf("modelcheck: store %s: %v", name, err))
	}
	w.tracef("submit job %s: request ad enters the pool", name)
}

// negotiate runs one shipped cycle of negotiator ni: lease, usage load,
// feed, Recompute, each match's hand-off, the Negotiator ad's publish.
func (w *World) negotiate(ni int) {
	neg := w.sys.cfg.Negotiators[ni]
	m := w.negs[ni]
	_, led := m.Leader()
	at := len(w.trace) // the hand-offs trace their MATCHes during the cycle
	res := m.RunCycle()
	if res.Standby {
		lease := w.store.LeaseInfo()
		w.tracef("negotiate %s: lease refused (held by %s until t=%d, epoch %d)",
			neg, lease.Holder, lease.Deadline, lease.Epoch)
		return
	}
	w.trace = slices.Insert(w.trace, at, fmt.Sprintf(
		"negotiate %s (epoch %d): %d requests x %d offers -> %d matches",
		neg, res.Epoch, res.Requests, res.Offers, len(res.Matches)))
	if prev, ok := w.epochHolders[res.Epoch]; ok && prev != neg {
		w.violate(CodeSingleLeader, "epoch %d granted to both %s and %s", res.Epoch, prev, neg)
	} else {
		w.epochHolders[res.Epoch] = neg
	}
	held := units(m)
	if res.Epoch != led {
		// A cycle under a new epoch first loads the pool's usage, and
		// the notifier only queues, so no verdict reached the table
		// since. MC104: it holds every charge the last publish held.
		for _, owner := range sortedKeys(w.durable) {
			if held[owner] < w.durable[owner] {
				w.violate(CodeLedgerConservation, "%s took over at epoch %d holding %d of %s's units; the last publish held %d",
					neg, res.Epoch, held[owner], owner, w.durable[owner])
			}
		}
	}
	w.durable = held // every leading cycle ends by publishing its table
}

// units is m's fair-share table in whole units: a schedule's ticks
// decay a unit by far less than half.
func units(m *pool.Manager) map[string]int {
	usage, _ := m.Usage().Snapshot()
	out := make(map[string]int, len(usage))
	for owner, u := range usage {
		out[owner] = int(math.Round(u))
	}
	return out
}

// handoff is negotiator neg's Notifier: it runs the MC105 oracle on each
// match and queues its notice for a deliver action.
type handoff struct {
	w   *World
	neg int
}

func (h handoff) Notify(nt *pool.Notice) error {
	w := h.w
	jobName, _ := collector.NameOf(nt.Match.Request)
	machName, _ := collector.NameOf(nt.Match.Offer)
	// MC105 oracle: the bilateral analyzer must not be able to prove
	// the emitted pair unsatisfiable.
	if rep := analysis.AnalyzeMatch(nt.Match.Request, nt.Match.Offer, &analysis.Options{Env: w.env}); rep.NeverMatch {
		w.violate(CodeUnsatisfiableMatch,
			"match %s -> %s is provably unsatisfiable: %v", jobName, machName, rep.Diags())
	}
	w.pending = append(w.pending, message{
		neg:     h.neg,
		job:     w.sys.jobIndex[classad.Fold(jobName)],
		machine: w.sys.machineIndex[classad.Fold(machName)],
		notice:  nt,
	})
	w.tracef("  MATCH %s -> %s (epoch %d) queued for delivery", jobName, machName, nt.Customer.Epoch)
	return nil
}

// deliver runs pending MATCH k as pool.Sender would, late: the shipped
// send over the transport, to the customer daemon (which fences the
// MATCH, claims and acks) and to the resource daemon, then the shipped
// verdict. lose makes the transport drop the resource daemon's replies
// for the delivery: the CLAIM_REPLY, and the advisory copy's ack.
func (w *World) deliver(k int, lose bool) {
	msg := w.pending[k]
	w.pending = append(w.pending[:k:k], w.pending[k+1:]...)
	ca := w.cas[w.sys.jobCA[msg.job]]
	ra := w.machines[msg.machine]
	jobName := w.sys.jobNames[msg.job]
	machName := w.sys.cfg.Machines[msg.machine].Name
	owner := w.sys.cfg.Jobs[msg.job].Owner
	epoch := msg.notice.Customer.Epoch

	high := ca.HighestEpoch()
	how := ""
	if lose {
		w.lost++
		w.net.LoseReplies(ra.Contact(), true)
		defer w.net.LoseReplies(ra.Contact(), false)
		how = ", CLAIM_REPLY lost"
	}
	// Conservation reads the shipped table: the owner's usage before
	// and after the verdict, at one clock reading.
	usage := w.negs[msg.neg].Usage()
	before := usage.Effective(owner)
	reply, err := msg.notice.Send(w.sender, once)
	// The CA refuses a MATCH below its high-water mark with an error
	// reply; nothing else fails but what a schedule loses on purpose.
	fenced := epoch < high && !w.sys.cfg.DaemonHooks.DisableEpochFence
	if err != nil && !fenced {
		panic(fmt.Sprintf("modelcheck: MATCH %s: %v", jobName, err))
	}
	accepted := err == nil && reply.Accepted
	if err == nil {
		msg.notice.Verdict(reply.Accepted)
	}
	charge := int(math.Round(usage.Effective(owner) - before))
	w.charges += charge
	verdict := fmt.Sprintf("claim GRANTED, owner %s charged %d", owner, charge)
	switch {
	case err != nil:
		verdict = fmt.Sprintf("fenced (%v)", err)
	case !accepted:
		verdict = fmt.Sprintf("not granted (%s)", reply.Reason)
	}
	w.tracef("deliver MATCH %s -> %s (epoch %d%s): %s; %s is %s",
		jobName, machName, epoch, how, verdict, jobName, w.job(msg.job).Status)
	if accepted && epoch < high {
		w.violate(CodeStaleEpochClaim,
			"claim %s -> %s granted from MATCH with stale epoch %d (%s's high-water %d)",
			jobName, machName, epoch, owner, high)
	}
}

// complete runs one work unit of job i; the last is
// CustomerDaemon.Complete, whose RELEASE frees the machine.
func (w *World) complete(i int) {
	ca := w.cas[w.sys.jobCA[i]]
	name := w.sys.jobNames[i]
	j := w.job(i)
	if left := j.Work - j.Done; left > 1 {
		_, _ = ca.CA.Progress(j.ID, 1, false) // cannot fail: complete is enabled only while the job runs
		w.tracef("complete %s: %g work units left", name, left-1)
		return
	}
	if err := ca.Complete(j.ID); err != nil {
		w.tracef("complete %s: done, RELEASE failed: %v", name, err)
		return
	}
	w.tracef("complete %s: done, claim released", name)
}

// checkInvariants runs the safety checks that hold in every state.
func (w *World) checkInvariants() {
	// MC103: every claim a resource daemon holds is for a job its
	// customer has Running on that machine, and no job holds two.
	holder := map[string]string{}
	for i, ra := range w.machines {
		claim, held := ra.RA.CurrentClaim()
		if !held {
			continue
		}
		machName := w.sys.cfg.Machines[i].Name
		id, _ := agent.JobIDOf(claim.Job)
		name := pool.JobName(claim.Customer, id)
		if prev, dup := holder[name]; dup {
			w.violate(CodeClaimExclusive, "job %s runs on both %s and %s", name, prev, machName)
			continue
		}
		holder[name] = machName
		status := "no job"
		if ca, ok := w.sys.ownerIndex[claim.Customer]; ok {
			if j, ok := w.cas[ca].CA.Job(id); ok {
				if j.Status == agent.JobRunning && j.Resource == machName {
					continue
				}
				status = string(j.Status)
			}
		}
		w.violate(CodeClaimExclusive, "machine %s holds a claim for %s, which its customer has as %s",
			machName, name, status)
	}
	// MC104: charges equal the claims the customers saw granted.
	granted := 0
	for _, ca := range w.cas {
		ok, _ := ca.ClaimStats()
		granted += ok
	}
	if w.charges != granted {
		w.violate(CodeLedgerConservation,
			"%d units charged against %d granted claims", w.charges, granted)
	}
}

// fingerprint canonicalizes the world state for DFS pruning. Tickets
// are random per replay, so they appear only as live/stale against
// each machine's RA; the lease deadline appears only as an expired bit
// (one tick always expires any live lease, so the bit captures
// everything future behavior depends on). A negotiator appears as its
// epoch, which also says whether it has loaded usage (a leading cycle
// loads before it negotiates, and in-process cannot fail), and its
// table in units. Observability artifacts, cycle counters and
// statistics, and sessions (unique per MATCH) are excluded.
func (w *World) fingerprint() string {
	var b strings.Builder
	lease := w.store.LeaseInfo()
	fmt.Fprintf(&b, "t%d|L%s/%d/%v|c%d|D%v|l%d|",
		w.ticks, lease.Holder, lease.Epoch, lease.Deadline > w.clock, w.charges, w.durable, w.lost)
	for i, m := range w.negs {
		_, epoch := m.Leader()
		fmt.Fprintf(&b, "n%d:%d:%v|", i, epoch, units(m))
	}
	for i, ca := range w.cas {
		ok, _ := ca.ClaimStats()
		fmt.Fprintf(&b, "ca%d:H%d:%d|", i, ca.HighestEpoch(), ok)
	}
	for i := range w.sys.cfg.Jobs {
		j := w.job(i)
		_, pooled := w.store.Lookup(w.sys.jobNames[i])
		fmt.Fprintf(&b, "j%d:%s:%s:%g:%v|", i, j.Status, j.Resource, j.Done, pooled)
	}
	for i, ra := range w.machines {
		fmt.Fprintf(&b, "m%d:%s:", i, ra.RA.State())
		if claim, held := ra.RA.CurrentClaim(); held {
			id, _ := agent.JobIDOf(claim.Job)
			fmt.Fprintf(&b, "%s/%d:", claim.Customer, id)
		}
		if ad, ok := w.store.Lookup(w.sys.cfg.Machines[i].Name); ok {
			b.WriteString(canonAd(ad, ra))
		}
		b.WriteByte('|')
	}
	msgs := make([]string, 0, len(w.pending))
	for _, msg := range w.pending {
		msgs = append(msgs, fmt.Sprintf("%d:%d>%d@%d/%v", msg.neg, msg.job, msg.machine, msg.notice.Customer.Epoch,
			live(w.machines[msg.machine], msg.notice.Customer.Ticket)))
	}
	sort.Strings(msgs)
	b.WriteString(strings.Join(msgs, ","))
	return b.String()
}

// canonAd renders an ad in attribute order with its authorization
// ticket reduced to whether it is live at the machine's RA.
func canonAd(ad *classad.Ad, ra *pool.ResourceDaemon) string {
	ticket, _ := ad.Eval(classad.AttrTicket).StringVal()
	ad = ad.Copy()
	ad.SetBool(classad.AttrTicket, live(ra, ticket))
	var b strings.Builder
	for _, n := range ad.SortedNames() {
		e, _ := ad.Lookup(n)
		fmt.Fprintf(&b, "%s=%s;", classad.Fold(n), e)
	}
	return b.String()
}
