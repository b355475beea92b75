package gen

import (
	"strings"
	"testing"

	"repro/internal/classad"
)

// corpus renders a fixed sequence of every kind of generated ad.
func corpus(seed int64) string {
	g := New(seed)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString(g.LiveMachine("live", Platforms[i%2]).String())
		bg := g.BackgroundMachine("bg")
		b.WriteString(bg.String())
		b.WriteString(g.Churn(bg).String())
		b.WriteString(g.Job(Platforms[i%2], i%3 == 0).String())
		q, _ := g.Query()
		b.WriteString(q.String())
	}
	return b.String()
}

func TestSameSeedSameBytes(t *testing.T) {
	if corpus(7) != corpus(7) {
		t.Fatal("the same seed produced different ads")
	}
	if corpus(7) == corpus(8) {
		t.Fatal("different seeds produced identical ads")
	}
}

// TestWhoMatchesWhom pins the property every workload's correctness
// check rests on: a job matches every live machine of its platform and
// no background machine, churned or not.
func TestWhoMatchesWhom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := New(seed)
		var jobs, live, background []*classad.Ad
		for i := 0; i < 40; i++ {
			plat := Platforms[i%2]
			job := g.Job(plat, i%2 == 0)
			job.SetString("Owner", Owners[i%4/2])
			jobs = append(jobs, job)
			live = append(live, g.LiveMachine("live", plat))
		}
		for i := 0; i < 400; i++ {
			bg := g.BackgroundMachine("bg")
			background = append(background, bg, g.Churn(bg))
		}
		for ji, job := range jobs {
			for li, m := range live {
				if want := ji%2 == li%2; classad.Match(job, m).Matched != want {
					t.Fatalf("seed %d: job %d x live %d: matched=%v, want %v\n%s\n%s",
						seed, ji, li, !want, want, job, m)
				}
			}
			for _, m := range background {
				if classad.Match(job, m).Matched {
					t.Fatalf("seed %d: job matched a background machine\n%s\n%s", seed, job, m)
				}
			}
		}
	}
}
