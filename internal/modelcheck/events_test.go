package modelcheck

// Delivery-order schedule exploration for the event-driven engine
// (the modelcheck half of the DropDirtyNotification,
// StaleOrderOnInsert and StopBeforeTies rediscoveries): a small pool's
// delta streams are delivered in every interleaving and every wake
// batching, and the engine's final assignment must equal a
// from-scratch negotiation on every schedule. The dropped-wake mutant
// survives some schedules — the ones where the change lands in the
// same wake as the ad it patches — the stale-order mutant survives the
// ones that deliver offers in key order, and the stop-before-ties
// mutant survives the ones where the job settles on c before its
// equal-rank twin b arrives, which is exactly why a fixed-order test
// cannot pin these bugs and an exhaustive schedule walk can.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/classad"
	"repro/internal/matchmaker"
)

func eventAd(src string) *classad.Ad { return classad.MustParse(src) }

// eventScenario's per-advertiser delta streams. Order within a stream
// is fixed (one advertiser's updates are FIFO); the schedule freedom
// is the interleaving across streams and where wakes fall.
func eventStreams() [][]matchmaker.AdDelta {
	return [][]matchmaker.AdDelta{
		{ // machine a appears big, then shrinks
			{Kind: matchmaker.AdOffer, Key: "a",
				Ad: eventAd(`[Name = "a"; Type = "Machine"; Memory = 64; Constraint = true; Rank = 0]`)},
			{Kind: matchmaker.AdOffer, Key: "a",
				Ad: eventAd(`[Name = "a"; Type = "Machine"; Memory = 16; Constraint = true; Rank = 0]`)},
		},
		{ // machine b is steady
			{Kind: matchmaker.AdOffer, Key: "b",
				Ad: eventAd(`[Name = "b"; Type = "Machine"; Memory = 32; Constraint = true; Rank = 0]`)},
		},
		{ // machine c ties b on the job's rank and wins on its own
			{Kind: matchmaker.AdOffer, Key: "c",
				Ad: eventAd(`[Name = "c"; Type = "Machine"; Memory = 32; Constraint = true; Rank = 1]`)},
		},
		{ // one job that prefers the biggest machine it fits on
			{Kind: matchmaker.AdRequest, Key: "j1",
				Ad: eventAd(`[Name = "j1"; Type = "Job"; Owner = "u1"; Constraint = other.Memory >= 32; Rank = other.Memory]`)},
		},
	}
}

// interleavings enumerates every merge of the streams that preserves
// each stream's internal order.
func interleavings(streams [][]matchmaker.AdDelta) [][]matchmaker.AdDelta {
	pos := make([]int, len(streams))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	var out [][]matchmaker.AdDelta
	var walk func(prefix []matchmaker.AdDelta)
	walk = func(prefix []matchmaker.AdDelta) {
		if len(prefix) == total {
			out = append(out, append([]matchmaker.AdDelta(nil), prefix...))
			return
		}
		for i, s := range streams {
			if pos[i] >= len(s) {
				continue
			}
			d := s[pos[i]]
			pos[i]++
			walk(append(prefix, d))
			pos[i]--
		}
	}
	walk(nil)
	return out
}

// runSchedule feeds seq into a fresh engine, waking after every
// position whose bit is set in wakeMask (and always at the end), and
// returns the final request -> offer assignment.
func runSchedule(seq []matchmaker.AdDelta, wakeMask int, mutant matchmaker.IncrementalHooks) map[string]string {
	m := matchmaker.New(matchmaker.Config{})
	eng := matchmaker.NewIncremental(m)
	eng.Hooks = mutant
	for i, d := range seq {
		eng.Apply(d)
		if wakeMask&(1<<i) != 0 {
			eng.Recompute()
		}
	}
	eng.Recompute()
	got := map[string]string{}
	for _, match := range eng.Matches() {
		r, _ := match.Request.Eval("Name").StringVal()
		o, _ := match.Offer.Eval("Name").StringVal()
		got[r] = o
	}
	return got
}

// referenceAssignment negotiates the final pool from scratch.
func referenceAssignment(streams [][]matchmaker.AdDelta) map[string]string {
	final := map[string]*classad.Ad{}
	for _, s := range streams {
		for _, d := range s {
			final[d.Key] = d.Ad
		}
	}
	names := make([]string, 0, len(final))
	for name := range final {
		names = append(names, name)
	}
	sort.Strings(names)
	var reqs, offs []*classad.Ad
	for _, name := range names {
		ad := final[name]
		if typ, _ := ad.Eval("Type").StringVal(); classad.Fold(typ) == "job" {
			reqs = append(reqs, ad)
		} else {
			offs = append(offs, ad)
		}
	}
	want := map[string]string{}
	for _, match := range matchmaker.New(matchmaker.Config{}).Negotiate(reqs, offs) {
		r, _ := match.Request.Eval("Name").StringVal()
		o, _ := match.Offer.Eval("Name").StringVal()
		want[r] = o
	}
	return want
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

// TestDeliveryScheduleConvergence: on every delivery interleaving and
// every wake batching, the healthy engine's final state equals the
// from-scratch negotiation. This is the event-driven analogue of the
// checker's safety walk — delta delivery order must not matter.
func TestDeliveryScheduleConvergence(t *testing.T) {
	streams := eventStreams()
	want := referenceAssignment(streams)
	orders := interleavings(streams)
	total := 0
	for _, seq := range orders {
		for mask := 0; mask < 1<<len(seq); mask++ {
			total++
			if got := runSchedule(seq, mask, matchmaker.IncrementalHooks{}); !sameAssignment(got, want) {
				t.Fatalf("schedule (order %v, wake mask %b) diverged: got %v, want %v",
					names(seq), mask, got, want)
			}
		}
	}
	t.Logf("%d schedules explored (%d interleavings), all converged to %v", total, len(orders), want)
}

// TestDeliveryScheduleRediscoversMutants: with any engine mutant
// seeded — DropDirtyNotification (a content change to a known offer is
// discarded), StaleOrderOnInsert (a new offer is filed at the tail of
// the ordered list, not at its key) or StopBeforeTies (the scan's walk
// ends at its first match, before the rest of that rank run) — there
// EXISTS a schedule whose final state diverges, and also schedules that
// mask the bug, which is why the exhaustive walk (not one lucky order)
// is the test.
func TestDeliveryScheduleRediscoversMutants(t *testing.T) {
	streams := eventStreams()
	want := referenceAssignment(streams)
	orders := interleavings(streams)
	for name, mutant := range map[string]matchmaker.IncrementalHooks{
		"DropDirtyNotification": {DropDirtyNotification: true},
		"StaleOrderOnInsert":    {StaleOrderOnInsert: true},
		"StopBeforeTies":        {StopBeforeTies: true},
	} {
		diverged, agreed := 0, 0
		var witness string
		for _, seq := range orders {
			for mask := 0; mask < 1<<len(seq); mask++ {
				got := runSchedule(seq, mask, mutant)
				if sameAssignment(got, want) {
					agreed++
					continue
				}
				diverged++
				if witness == "" {
					witness = fmt.Sprintf("order %v, wake mask %b: got %v, want %v", names(seq), mask, got, want)
				}
			}
		}
		if diverged == 0 {
			t.Fatalf("%s mutant survived every delivery schedule", name)
		}
		if agreed == 0 {
			t.Fatalf("%s mutant diverged on every schedule; the bug would not need schedule exploration", name)
		}
		t.Logf("%s rediscovered: %d/%d schedules diverged; witness: %s", name, diverged, diverged+agreed, witness)
	}
}

func names(seq []matchmaker.AdDelta) []string {
	out := make([]string, len(seq))
	for i, d := range seq {
		out[i] = d.Key
	}
	return out
}
