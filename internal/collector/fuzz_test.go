package collector

import (
	"testing"

	"repro/internal/classad"
)

// FuzzMergeDiff: for any two ads a and b, merging the delta
// DiffAds(a, b) onto a gives back b, which is what a delta advertiser
// and ApplyDelta rely on to keep sender and store agreeing. Every name
// DiffAds reports removed is absent from b and really gone from the
// merged ad, and the merge leaves a as it was (stored ads are
// immutable once published). The corpus starts from the paper's two
// figures against each other and against themselves, and Figure 1 with
// an attribute removed and with one changed.
func FuzzMergeDiff(f *testing.F) {
	trimmed := classad.Figure1()
	trimmed.Delete("KeyboardIdle")
	changed := classad.Figure1()
	changed.SetReal("LoadAvg", 0.5)
	fig1, fig2 := classad.Figure1Source, classad.Figure2Source
	for _, pair := range [][2]string{
		{fig1, fig2}, {fig2, fig1}, {fig1, fig1},
		{fig1, trimmed.String()}, {trimmed.String(), fig1},
		{fig1, changed.String()},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, aSrc, bSrc string) {
		a, err := classad.Parse(aSrc)
		if err != nil {
			return
		}
		b, err := classad.Parse(bSrc)
		if err != nil {
			return
		}
		before := a.String()
		changes, removed := DiffAds(a, b)
		merged := MergeAd(a, changes, removed)
		if !merged.Equal(b) {
			t.Fatalf("MergeAd(a, DiffAds(a, b)) != b\n     a %s\n     b %s\nmerged %s", a, b, merged)
		}
		for _, name := range removed {
			if _, ok := b.Lookup(name); ok {
				t.Fatalf("DiffAds reports %q removed, but b defines it", name)
			}
			if _, ok := merged.Lookup(name); ok {
				t.Fatalf("%q was removed, but the merged ad still defines it", name)
			}
		}
		if after := a.String(); after != before {
			t.Fatalf("MergeAd modified its base:\nbefore %s\n after %s", before, after)
		}
	})
}
