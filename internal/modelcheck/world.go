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
	// DaemonHooks seed every customer and resource daemon's mutants.
	DaemonHooks pool.Hooks
	// DoubleCharge bills two units per granted claim — the ledger bug
	// MC104 exists to catch. It is the world's mutant because the
	// world is the notifier, and the notifier charges.
	DoubleCharge bool
}

// maxLostReplies bounds the deliver_lost actions of one schedule.
const maxLostReplies = 1

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

// message is one MATCH notification in flight from a negotiator to a
// customer daemon, as the negotiator's notifier sends it.
type message struct {
	job, machine int
	env          *protocol.Envelope
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

// negotiatorState is one negotiator as production runs it: a
// negotiation engine and its subscription to the store's change feed.
type negotiatorState struct {
	eng *matchmaker.Incremental
	sub *collector.Subscription
}

// World is one concrete execution of a scenario: real collector,
// negotiation engines, customer daemons and resource daemons, the
// daemons talking over an in-process transport, with the world playing
// the negotiators' notifier.
type World struct {
	sys   *system
	clock int64
	ticks int
	env   *classad.Env

	store *collector.Store
	usage *matchmaker.PriorityTable
	negs  map[string]*negotiatorState

	net      *netx.Transport
	notifier *netx.Dialer
	cas      []*pool.CustomerDaemon
	machines []*pool.ResourceDaemon
	pending  []message
	lost     int

	// epochHolders records which negotiator won each lease epoch
	// (MC101: at most one per epoch).
	epochHolders map[uint64]string

	// charges is the raw MC104 ledger, units billed. The PriorityTable
	// decays, so conservation is checked on it, not on the table.
	charges int

	cycleSeq   int
	violations []*Violation
	codeSeen   map[string]bool
	trace      []string
}

// newWorld builds a fresh world at the scenario's initial state, every
// job queued at its customer daemon. o, when set, instruments the
// matchmakers and daemons for RenderTrace; exploration passes nil (the
// log costs time the DFS cannot spare).
func (s *system) newWorld(o *obs.Obs) *World {
	w := &World{
		sys:          s,
		clock:        1000,
		epochHolders: map[uint64]string{},
		codeSeen:     map[string]bool{},
		negs:         map[string]*negotiatorState{},
		net:          netx.NewTransport(),
	}
	w.notifier = w.net.Dialer()
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
		w.negs[neg] = &negotiatorState{eng: eng, sub: w.store.Subscribe()}
	}
	// One attempt per conversation: nothing on the transport fails but
	// what a schedule loses on purpose.
	once := netx.RetryPolicy{Attempts: 1}
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
	matches, stats := n.eng.Recompute()
	w.tracef("negotiate %s (epoch %d, cycle %d): %d requests x %d offers -> %d matches",
		neg, lease.Epoch, w.cycleSeq, stats.Requests, stats.Offers, len(matches))
	for i, match := range matches {
		jobName, _ := collector.NameOf(match.Request)
		machName, _ := collector.NameOf(match.Offer)
		ji := w.sys.jobIndex[classad.Fold(jobName)]
		mi := w.sys.machineIndex[classad.Fold(machName)]
		// MC105 oracle: the bilateral analyzer must not be able to
		// prove the emitted pair unsatisfiable.
		if rep := analysis.AnalyzeMatch(match.Request, match.Offer, &analysis.Options{Env: w.env}); rep.NeverMatch {
			w.violate(CodeUnsatisfiableMatch,
				"match %s -> %s is provably unsatisfiable: %v", jobName, machName, rep.Diags())
		}
		// The MATCH the negotiator's notifier sends the customer, with
		// a session unique to it.
		ticket, _ := match.Offer.Eval(classad.AttrTicket).StringVal()
		w.pending = append(w.pending, message{job: ji, machine: mi, env: &protocol.Envelope{
			Type:    protocol.TypeMatch,
			Name:    jobName,
			PeerAd:  protocol.EncodeAd(match.Offer),
			Ticket:  ticket,
			Session: fmt.Sprintf("c%d.%d", w.cycleSeq, i),
			Trace:   classad.TraceOf(match.Request),
			Epoch:   lease.Epoch,
		}})
		w.store.Invalidate(jobName)
		w.tracef("  MATCH %s -> %s (epoch %d) queued for delivery", jobName, machName, lease.Epoch)
	}
}

// deliver sends pending MATCH k to its customer daemon over the
// transport. The daemon fences it, claims from the resource daemon and
// acks; the world charges the owner when the ack says the claim was
// granted, as the negotiator does. lose makes the transport drop the
// resource daemon's CLAIM_REPLY.
func (w *World) deliver(k int, lose bool) {
	msg := w.pending[k]
	w.pending = append(w.pending[:k:k], w.pending[k+1:]...)
	ca := w.cas[w.sys.jobCA[msg.job]]
	ra := w.machines[msg.machine]
	jobName := w.sys.jobNames[msg.job]
	machName := w.sys.cfg.Machines[msg.machine].Name
	owner := w.sys.cfg.Jobs[msg.job].Owner

	high := ca.HighestEpoch()
	how := ""
	if lose {
		w.lost++
		w.net.LoseReplies(ra.Contact(), true)
		defer w.net.LoseReplies(ra.Contact(), false)
		how = ", CLAIM_REPLY lost"
	}
	var reply *protocol.Envelope
	if err := w.notifier.Do(ca.Contact(), 0, protocol.Idempotent(protocol.TypeMatch), func(c *netx.Conn) error {
		var err error
		reply, err = protocol.Exchange(c, c.Reader(), msg.env)
		return err
	}); err != nil {
		panic(fmt.Sprintf("modelcheck: MATCH %s: %v", jobName, err))
	}
	verdict := fmt.Sprintf("not granted (%s)", reply.Reason)
	if reply.Accepted {
		charge := 1
		if w.sys.cfg.DoubleCharge {
			charge = 2
		}
		w.charges += charge
		w.usage.Record(owner, float64(charge))
		verdict = fmt.Sprintf("claim GRANTED, owner %s charged %d", owner, charge)
	}
	w.tracef("deliver MATCH %s -> %s (epoch %d%s): %s; %s is %s",
		jobName, machName, msg.env.Epoch, how, verdict, jobName, w.job(msg.job).Status)
	if reply.Accepted && msg.env.Epoch < high {
		w.violate(CodeStaleEpochClaim,
			"claim %s -> %s granted from MATCH with stale epoch %d (%s's high-water %d)",
			jobName, machName, msg.env.Epoch, owner, high)
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
// everything future behavior depends on). Observability artifacts and
// session IDs (unique per MATCH, so only their distinctness matters)
// are excluded.
func (w *World) fingerprint() string {
	var b strings.Builder
	lease := w.store.LeaseInfo()
	fmt.Fprintf(&b, "t%d|L%s/%d/%v|c%d|l%d|",
		w.ticks, lease.Holder, lease.Epoch, lease.Deadline > w.clock, w.charges, w.lost)
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
		msgs = append(msgs, fmt.Sprintf("%d>%d@%d/%v", msg.job, msg.machine, msg.env.Epoch,
			live(w.machines[msg.machine], msg.env.Ticket)))
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
