package pool

// Tests for the single negotiation path: whichever entry point runs a
// cycle — RunCycle, EventLoop.Wake, NegotiatorDaemon.Tick — it is the
// same driver over the same engine, and its assignment is the naive
// oracle's.

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// stubContact stands in for every CA and RA contact of a test pool: it
// acknowledges each envelope as an accepted claim, or — while refuse is
// set — answers with an ERROR, which fails the notification at once
// (no retry).
type stubContact struct {
	addr   string
	refuse atomic.Bool
}

func newStubContact(t *testing.T) *stubContact {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubContact{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if _, err := protocol.Read(bufio.NewReader(conn)); err != nil {
					return
				}
				reply := &protocol.Envelope{Type: protocol.TypeAck, Accepted: true}
				if s.refuse.Load() {
					reply = &protocol.Envelope{Type: protocol.TypeError, Reason: "stub refuses"}
				}
				protocol.Write(conn, reply) // the peer reports a lost reply
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return s
}

// machineAd is an offer with a memory size and a speed requests can
// rank by; jobAd a request wanting at least minMem, preferring speed.
func (s *stubContact) machineAd(name string, memory, mips int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString(classad.AttrType, "Machine")
	ad.SetString(classad.AttrName, name)
	ad.SetString(classad.AttrContact, s.addr)
	ad.SetInt("Memory", memory)
	ad.SetInt("Mips", mips)
	return ad
}

func (s *stubContact) jobAd(name, owner string, minMem int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString(classad.AttrType, "Job")
	ad.SetString(classad.AttrName, name)
	ad.SetString(classad.AttrOwner, owner)
	ad.SetString(classad.AttrContact, s.addr)
	if err := ad.SetExprString("Constraint", fmt.Sprintf("other.Memory >= %d", minMem)); err != nil {
		panic(err)
	}
	if err := ad.SetExprString("Rank", "other.Mips"); err != nil {
		panic(err)
	}
	return ad
}

// naiveAssignment is the from-scratch oracle over a store listing:
// requests in name order, each taking the free compatible offer it
// ranks highest, ties to the higher offer rank and then the earlier
// name. (These pools advertise no claimed machines and charge no
// usage, so fair share and the claimed tie-break do not enter.)
func naiveAssignment(ads []*classad.Ad, env *classad.Env) map[string]string {
	var reqs, offs []*classad.Ad
	for _, ad := range ads { // Store.All is name-sorted
		switch typ, _ := ad.Eval(classad.AttrType).StringVal(); classad.Fold(typ) {
		case "job":
			reqs = append(reqs, ad)
		case "negotiator", "daemon":
		default:
			offs = append(offs, ad)
		}
	}
	taken := make([]bool, len(offs))
	out := map[string]string{}
	for _, req := range reqs {
		best := -1
		var bestRes classad.MatchResult
		for oi, off := range offs {
			if taken[oi] {
				continue
			}
			res := classad.MatchEnv(req, off, env)
			if !res.Matched {
				continue
			}
			if best < 0 || res.LeftRank > bestRes.LeftRank ||
				(res.LeftRank == bestRes.LeftRank && res.RightRank > bestRes.RightRank) {
				best, bestRes = oi, res
			}
		}
		if best >= 0 {
			taken[best] = true
			out[adName(req)] = adName(offs[best])
		}
	}
	return out
}

func assignmentOf(matches []matchmaker.Match) map[string]string {
	out := map[string]string{}
	for _, m := range matches {
		out[adName(m.Request)] = adName(m.Offer)
	}
	return out
}

func sameAssignment(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func counter(o *obs.Obs, name string) int64 { return o.Registry().Snapshot().Counters[name] }

// TestTimerModeEqualsEventMode drives one scripted ad stream through
// two managers — RunCycle after every step on one, EventLoop.Wake (with
// the pump running beside it) on the other — and demands identical
// match histories, produced by the same engine doing the same work:
// one seeding full rebuild, then incremental wakes, in both.
func TestTimerModeEqualsEventMode(t *testing.T) {
	stub := newStubContact(t)
	env := classad.FixedEnv(1_000_000, 1)
	steps := []func(st *collector.Store){
		func(st *collector.Store) {
			st.Update(stub.machineAd("m1", 64, 100), 0)
			st.Update(stub.machineAd("m2", 128, 200), 0)
		},
		func(st *collector.Store) { st.Update(stub.jobAd("alice/j1", "alice", 32), 0) },
		func(st *collector.Store) {
			st.Update(stub.jobAd("alice/j2", "alice", 32), 0)
			st.Update(stub.jobAd("bob/j1", "bob", 32), 0)
		},
		func(st *collector.Store) {
			st.Update(stub.machineAd("m2", 128, 50), 0) // m2 slows down
			st.Update(stub.jobAd("carol/j1", "carol", 100), 0)
		},
		func(st *collector.Store) {
			st.Invalidate("m1")
			st.Update(stub.jobAd("bob/j2", "bob", 32), 0)
		},
		func(*collector.Store) {}, // a quiet period: nothing to do
		func(st *collector.Store) { st.Update(stub.jobAd("dave/j1", "dave", 4096), 0) },
	}

	run := func(cycle func(*Manager) func() CycleResult) (string, *obs.Obs) {
		var history syncBuffer
		o := obs.New()
		mgr := NewManager(ManagerConfig{
			Env: env, Logf: t.Logf, History: &history, Obs: o,
			Matchmaker: matchmaker.Config{FairShare: true},
		})
		t.Cleanup(mgr.Close)
		runCycle := cycle(mgr)
		for i, step := range steps {
			step(mgr.Store())
			if res := runCycle(); len(res.Errors) != 0 {
				t.Fatalf("step %d: %v", i, res.Errors)
			}
		}
		return history.String(), o
	}
	timerHist, timerObs := run(func(m *Manager) func() CycleResult { return m.RunCycle })
	eventHist, eventObs := run(func(m *Manager) func() CycleResult {
		el := m.StartEvents(time.Hour)
		t.Cleanup(el.Stop)
		return func() CycleResult { res, _ := el.Wake(); return res }
	})

	if timerHist != eventHist {
		t.Fatalf("histories differ:\ntimer:\n%s\nevent:\n%s", timerHist, eventHist)
	}
	if n := strings.Count(timerHist, "\n"); n != 5 {
		t.Fatalf("history holds %d matches, want 5 (dave/j1 fits nowhere):\n%s", n, timerHist)
	}
	for name, o := range map[string]*obs.Obs{"timer": timerObs, "event": eventObs} {
		if wakes := counter(o, "matchmaker_wakes_total"); wakes != int64(len(steps)) {
			t.Errorf("%s mode: matchmaker_wakes_total = %d, want %d (every cycle is an engine wake)", name, wakes, len(steps))
		}
		if full := counter(o, "matchmaker_full_rebuilds_total"); full != 1 {
			t.Errorf("%s mode: matchmaker_full_rebuilds_total = %d, want only the seeding rebuild", name, full)
		}
	}
}

// TestRunCycleNegotiatesEveryStoredAd pins the timer-mode contract —
// an ad stored before RunCycle is called is negotiated by that call —
// with the event loop's pump racing the cycle for every batch, and
// across an EventLoop's whole life on the same manager: before Stop,
// and after it (the engine and its subscription are the manager's).
func TestRunCycleNegotiatesEveryStoredAd(t *testing.T) {
	stub := newStubContact(t)
	o := obs.New()
	mgr := NewManager(ManagerConfig{Logf: t.Logf, Obs: o})
	t.Cleanup(mgr.Close)
	st := mgr.Store()
	if err := st.Update(stub.machineAd("m1", 64, 100), 0); err != nil {
		t.Fatal(err)
	}

	el := mgr.StartEvents(time.Hour)
	submitAndCycle := func(i int, cycle func() CycleResult) {
		t.Helper()
		name := fmt.Sprintf("raman/job%03d", i)
		if err := st.Update(stub.jobAd(name, "raman", 32), 0); err != nil {
			t.Fatal(err)
		}
		res := cycle()
		if got := assignmentOf(res.Matches)[name]; got != "m1" || res.Notified != 1 {
			t.Fatalf("job %d stored right before its cycle: matches %v, notified %d, errors %v",
				i, assignmentOf(res.Matches), res.Notified, res.Errors)
		}
	}
	for i := 0; i < 40; i++ {
		submitAndCycle(i, mgr.RunCycle)
	}
	submitAndCycle(40, func() CycleResult { res, _ := el.Wake(); return res })
	el.Stop()
	for i := 41; i < 50; i++ {
		submitAndCycle(i, mgr.RunCycle)
	}
	if wakes := counter(o, "matchmaker_wakes_total"); wakes != 50 {
		t.Fatalf("matchmaker_wakes_total = %d, want 50: a cycle ran outside the engine", wakes)
	}
}

// TestGroupMatchingInEventMode: an equal-rank run of twins costs the
// engine's scan one try, so an event-mode wake over a 16-class pool
// evaluates at most one offer per class and request — not every offer,
// and not nothing — and still picks what the oracle picks.
func TestGroupMatchingInEventMode(t *testing.T) {
	const classes, perClass, requests = 16, 8, 12
	stub := newStubContact(t)
	stub.refuse.Store(true) // keep the jobs in the pool: this test is about the assignment
	env := classad.FixedEnv(1_000_000, 1)
	mgr := NewManager(ManagerConfig{Env: env})
	t.Cleanup(mgr.Close)
	el := mgr.StartEvents(time.Hour)
	t.Cleanup(el.Stop)
	st := mgr.Store()
	for c := 0; c < classes; c++ {
		for k := 0; k < perClass; k++ {
			if err := st.Update(stub.machineAd(fmt.Sprintf("m%02d-%d", c, k), int64(32*(c+1)), int64(100+c)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < requests; i++ {
		// Distinct constraints, so no two requests share a candidate set.
		if err := st.Update(stub.jobAd(fmt.Sprintf("u/job%02d", i), "u", int64(32+16*i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := naiveAssignment(st.All(), env)
	res, stats := el.Wake()
	if got := assignmentOf(res.Matches); !sameAssignment(got, want) || len(got) != requests {
		t.Fatalf("wake matched %v, oracle %v", got, want)
	}
	if stats.Evals == 0 || stats.Evals > classes*requests {
		t.Fatalf("wake spent %d evaluations, want 1..%d (classes x requests; the pool holds %d offers)",
			stats.Evals, classes*requests, classes*perClass)
	}
}

// TestSubscriptionOverflowResyncs: a manager whose subscription is
// never drained holds at most SubscriptionCap deltas however much is
// published, and its next cycle — answering the resync marker from the
// store itself — still produces the oracle's assignment.
func TestSubscriptionOverflowResyncs(t *testing.T) {
	stub := newStubContact(t)
	stub.refuse.Store(true)
	env := classad.FixedEnv(1_000_000, 1)
	o := obs.New()
	mgr := NewManager(ManagerConfig{Env: env, Obs: o})
	t.Cleanup(mgr.Close)
	st := mgr.Store()
	mgr.RunCycle() // opens the engine's subscription

	// 10x the cap, over a small set of names: 48 machines flip between
	// two speeds, 16 jobs come and go. The stream ends on a round that
	// leaves the jobs in.
	var machines [48][2]*classad.Ad
	for k := range machines {
		for v := range machines[k] {
			machines[k][v] = stub.machineAd(fmt.Sprintf("m%02d", k), int64(32*(1+k%4)), int64(100+2*k+v))
		}
	}
	var jobs [16]*classad.Ad
	for k := range jobs {
		jobs[k] = stub.jobAd(fmt.Sprintf("u/job%02d", k), "u", int64(32*(1+k%4)))
	}
	const rounds = 10*collector.SubscriptionCap/64 + 1
	for round := 0; round < rounds; round++ {
		for k := range machines {
			if err := st.Update(machines[k][round%2], 0); err != nil {
				t.Fatal(err)
			}
		}
		for k := range jobs {
			if round%2 == 1 {
				st.Invalidate(adName(jobs[k]))
			} else if err := st.Update(jobs[k], 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := mgr.local.sub.Pending(); n > collector.SubscriptionCap {
			t.Fatalf("after %d publications the undrained subscription holds %d deltas, cap %d", 64*(round+1), n, collector.SubscriptionCap)
		}
	}
	if overflows := counter(o, "collector_subscription_overflows_total"); overflows == 0 {
		t.Fatal("collector_subscription_overflows_total = 0 after 10x the cap")
	}

	want := naiveAssignment(st.All(), env)
	res := mgr.RunCycle()
	if got := assignmentOf(res.Matches); !sameAssignment(got, want) || len(got) == 0 {
		names := make([]string, 0, len(want))
		for r := range want {
			names = append(names, r)
		}
		sort.Strings(names)
		t.Fatalf("cycle after overflow matched %v, oracle %v (requests %v)", got, want, names)
	}
	if full := counter(o, "matchmaker_full_rebuilds_total"); full != 2 {
		t.Fatalf("matchmaker_full_rebuilds_total = %d, want 2 (seeding, then the resync)", full)
	}
}

// TestRemoteTickSkipsIdleAndRetriesFailures: the remote heartbeat runs
// the same driver; it skips the cycle when the collector's pool-change
// counter has not moved since its last cycle's own writes, but never
// while a failed notification is waiting for its retry, and never when
// forced.
func TestRemoteTickSkipsIdleAndRetriesFailures(t *testing.T) {
	stub := newStubContact(t)
	st := collector.New(nil)
	server := collector.NewServer(st, t.Logf)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	d := NewNegotiatorDaemon("nego", &collector.Client{Addr: addr}, matchmaker.Config{})
	d.Logf = t.Logf

	if err := st.Update(stub.machineAd("m1", 64, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(stub.jobAd("raman/job1", "raman", 32), 0); err != nil {
		t.Fatal(err)
	}
	stub.refuse.Store(true)
	if res := d.Tick(false); res.Standby || res.Skipped || len(res.Matches) != 1 || len(res.Errors) != 1 {
		t.Fatalf("first tick, customer refusing = %+v, want one match and one notify error", res)
	}
	// Nothing in the pool changed, but the match is still owed its
	// notification.
	stub.refuse.Store(false)
	if res := d.Tick(false); res.Skipped || res.Notified != 1 || res.Charged != 1 {
		t.Fatalf("tick after a failed notification = %+v, want the retry to land", res)
	}
	if _, ok := st.Lookup("raman/job1"); ok {
		t.Fatal("the notified request was not withdrawn from the collector")
	}
	if res := d.Tick(false); !res.Skipped || res.Epoch != 1 {
		t.Fatalf("tick on an unchanged pool = %+v, want skipped under epoch 1", res)
	}
	if res := d.Tick(true); res.Skipped || res.Standby {
		t.Fatalf("forced tick on an unchanged pool = %+v, want a cycle", res)
	}
	if err := st.Update(stub.jobAd("raman/job2", "raman", 32), 0); err != nil {
		t.Fatal(err)
	}
	if res := d.Tick(false); res.Skipped || res.Notified != 1 {
		t.Fatalf("tick after a new job = %+v, want it matched", res)
	}
}
