package agent

import (
	"runtime"
	"testing"

	"repro/internal/classad"
	"repro/internal/obs"
)

func newCA(t *testing.T) *Customer {
	t.Helper()
	return NewCustomer("raman", classad.FixedEnv(500, 1))
}

func TestSubmitStampsAttributes(t *testing.T) {
	c := newCA(t)
	j := c.Submit(classad.MustParse(`[ Cmd = "run_sim"; Memory = 31 ]`), 100)
	if j.ID != 1 || j.Status != JobIdle {
		t.Fatalf("job = %+v", j)
	}
	if owner, _ := j.Ad.Eval("Owner").StringVal(); owner != "raman" {
		t.Errorf("Owner = %q", owner)
	}
	if id, ok := JobIDOf(j.Ad); !ok || id != 1 {
		t.Errorf("JobId = %d, %v", id, ok)
	}
	if q, _ := j.Ad.Eval("QDate").IntVal(); q != 500 {
		t.Errorf("QDate = %d", q)
	}
	if typ, _ := j.Ad.Eval("Type").StringVal(); typ != "Job" {
		t.Errorf("Type = %q", typ)
	}
	// A caller-supplied QDate survives.
	j2 := c.Submit(classad.MustParse(`[ QDate = 42 ]`), 1)
	if q, _ := j2.Ad.Eval("QDate").IntVal(); q != 42 {
		t.Errorf("caller QDate = %d", q)
	}
	// IDs are sequential.
	if j2.ID != 2 {
		t.Errorf("second ID = %d", j2.ID)
	}
}

func TestSubmitDoesNotMutateCallerAd(t *testing.T) {
	c := newCA(t)
	ad := classad.MustParse(`[ Cmd = "x" ]`)
	c.Submit(ad, 1)
	if _, ok := ad.Lookup("Owner"); ok {
		t.Error("Submit mutated the caller's ad")
	}
}

func TestIdleRequestsLifecycle(t *testing.T) {
	c := newCA(t)
	j1 := c.Submit(classad.MustParse(`[ Cmd = "a" ]`), 10)
	j2 := c.Submit(classad.MustParse(`[ Cmd = "b" ]`), 10)
	if n := len(c.IdleRequests()); n != 2 {
		t.Fatalf("idle = %d", n)
	}
	if err := c.MarkRunning(j1.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if n := len(c.IdleRequests()); n != 1 {
		t.Errorf("idle after start = %d", n)
	}
	// Running a running job is an error.
	if err := c.MarkRunning(j1.ID, "w2"); err == nil {
		t.Error("double MarkRunning allowed")
	}
	// Completion.
	done, err := c.Progress(j1.ID, 10, false)
	if err != nil || !done {
		t.Fatalf("progress: done=%v err=%v", done, err)
	}
	job1, _ := c.Job(j1.ID)
	if job1.Status != JobCompleted {
		t.Errorf("status = %s", job1.Status)
	}
	if cd, _ := job1.Ad.Eval("CompletionDate").IntVal(); cd != 500 {
		t.Errorf("CompletionDate = %d", cd)
	}
	// Removal takes a job out of negotiation.
	if err := c.Remove(j2.ID); err != nil {
		t.Fatal(err)
	}
	if n := len(c.IdleRequests()); n != 0 {
		t.Errorf("idle after remove = %d", n)
	}
	if err := c.Remove(99); err == nil {
		t.Error("removing unknown job should error")
	}
	counts := c.Counts()
	if counts[JobCompleted] != 1 || counts[JobRemoved] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// IdleRequests skips the settled head of the queue; what follows it
// must still come back in submission order, an evicted job included.
func TestIdleRequestsAfterSettledJobs(t *testing.T) {
	c := newCA(t)
	var ids []int
	for _, cmd := range []string{"a", "b", "c", "d"} {
		ids = append(ids, c.Submit(classad.MustParse(`[ Cmd = "`+cmd+`" ]`), 1).ID)
	}
	for _, id := range ids[:3] {
		if err := c.MarkRunning(id, "w"); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{ids[0], ids[1]} {
		if done, err := c.Progress(id, 1, false); err != nil || !done {
			t.Fatalf("progress %d: done=%v err=%v", id, done, err)
		}
	}
	idle := func() []int {
		var got []int
		for _, ad := range c.IdleRequests() {
			id, _ := JobIDOf(ad)
			got = append(got, id)
		}
		return got
	}
	if got := idle(); len(got) != 1 || got[0] != ids[3] {
		t.Fatalf("idle = %v, want [%d]", got, ids[3])
	}
	if err := c.Evicted(ids[2]); err != nil {
		t.Fatal(err)
	}
	if got := idle(); len(got) != 2 || got[0] != ids[2] || got[1] != ids[3] {
		t.Fatalf("idle after eviction = %v, want [%d %d]", got, ids[2], ids[3])
	}
}

func TestEvictionLosesUnbankedProgress(t *testing.T) {
	c := newCA(t)
	j := c.Submit(classad.MustParse(`[ Cmd = "sim" ]`), 100)
	_ = c.MarkRunning(j.ID, "w1")
	// 30 units done, none checkpointed.
	if done, _ := c.Progress(j.ID, 30, false); done {
		t.Fatal("job finished early")
	}
	if err := c.Evicted(j.ID); err != nil {
		t.Fatal(err)
	}
	job, _ := c.Job(j.ID)
	if job.Status != JobIdle || job.Done != 0 || job.Evictions != 1 {
		t.Errorf("after eviction: %+v", job)
	}
	// With checkpointing, progress survives eviction (Figure 2's
	// WantCheckpoint).
	_ = c.MarkRunning(j.ID, "w2")
	_, _ = c.Progress(j.ID, 40, true)
	_ = c.Evicted(j.ID)
	job, _ = c.Job(j.ID)
	if job.Done != 40 {
		t.Errorf("checkpointed progress = %v, want 40", job.Done)
	}
	// Resumed job needs only the remainder.
	_ = c.MarkRunning(j.ID, "w3")
	if done, _ := c.Progress(j.ID, 60, false); !done {
		t.Error("job should complete after 40 + 60")
	}
}

func TestProgressAndEvictErrors(t *testing.T) {
	c := newCA(t)
	j := c.Submit(classad.MustParse(`[ Cmd = "x" ]`), 5)
	if _, err := c.Progress(j.ID, 1, false); err == nil {
		t.Error("progress on idle job allowed")
	}
	if err := c.Evicted(j.ID); err == nil {
		t.Error("evicting idle job allowed")
	}
	if _, err := c.Progress(999, 1, false); err == nil {
		t.Error("progress on unknown job allowed")
	}
}

func TestSnapshotOrder(t *testing.T) {
	c := newCA(t)
	for i := 0; i < 5; i++ {
		c.Submit(classad.MustParse(`[ Cmd = "x" ]`), 1)
	}
	snap := c.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot = %d entries", len(snap))
	}
	for i, j := range snap {
		if j.ID != i+1 {
			t.Errorf("entry %d has ID %d", i, j.ID)
		}
	}
}

func TestJobIDOfForeignAd(t *testing.T) {
	if _, ok := JobIDOf(classad.MustParse("[x = 1]")); ok {
		t.Error("JobIDOf invented an ID")
	}
}

// settleN submits n Figure 2 jobs and runs each to completion.
func settleN(t *testing.T, c *Customer, n int) []int {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = c.Submit(classad.Figure2(), 1).ID
		if err := c.MarkRunning(ids[i], "w"); err != nil {
			t.Fatal(err)
		}
		if done, err := c.Progress(ids[i], 1, false); err != nil || !done {
			t.Fatalf("progress: done=%v err=%v", done, err)
		}
	}
	return ids
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A settled job is kept as its ad's text, not its parse tree: about a
// sixth of the memory (a Figure 2 job's tree and bookkeeping held
// ~4.5 KB), and Job parses it back whole.
func TestSettledJobsKeptAsText(t *testing.T) {
	const n = 2000
	c := newCA(t)
	before := heapAlloc()
	ids := settleN(t, c, n)
	after := heapAlloc()
	runtime.KeepAlive(c)
	per := (int64(after) - int64(before)) / n
	t.Logf("%d bytes retained per settled job", per)
	if per > 1024 {
		t.Errorf("%d bytes retained per settled job, want <= 1024", per)
	}
	j, ok := c.Job(ids[0])
	if !ok || j.Status != JobCompleted {
		t.Fatalf("job = %+v, %v", j, ok)
	}
	want := classad.Figure2()
	for _, name := range want.Names() {
		if name == "CompletionDate" {
			continue // stamped at completion, below
		}
		if !j.Ad.Eval(name).Identical(want.Eval(name)) {
			t.Errorf("%s = %v after settling, want %v", name, j.Ad.Eval(name), want.Eval(name))
		}
	}
	if cd, _ := j.Ad.Eval("CompletionDate").IntVal(); cd != 500 {
		t.Errorf("CompletionDate = %d", cd)
	}
	if snap := c.Snapshot(); len(snap) != n || snap[n-1].Ad == nil {
		t.Errorf("snapshot of %d entries, last ad %v", len(snap), snap[len(snap)-1].Ad)
	}
}

// Past the bound the queue forgets its longest-settled entries, and
// every view of the queue agrees on what is left.
func TestSettledJobsBounded(t *testing.T) {
	c := newCA(t)
	if c.settledCap != maxSettledJobs || maxSettledJobs != 1<<16 {
		t.Fatalf("settled bound = %d (constant %d), want 65536", c.settledCap, maxSettledJobs)
	}
	c.settledCap = 3
	reg := obs.NewRegistry()
	c.Instrument(reg)
	var ids []int
	for i := 0; i < 6; i++ {
		ids = append(ids, c.Submit(classad.MustParse(`[ Cmd = "x" ]`), 1).ID)
	}
	// Settle 2, 1, 3, 4 and 5 in that order; 6 stays idle.
	for _, id := range []int{ids[1], ids[0], ids[2], ids[3]} {
		if err := c.MarkRunning(id, "w"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Progress(id, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove(ids[4]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:2] {
		if _, ok := c.Job(id); ok {
			t.Errorf("job %d, among the first settled, is still remembered", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := c.Job(id); !ok {
			t.Errorf("job %d forgotten", id)
		}
	}
	var got []int
	for _, j := range c.Snapshot() {
		got = append(got, j.ID)
	}
	if len(got) != 4 || got[0] != ids[2] || got[3] != ids[5] {
		t.Errorf("snapshot IDs = %v, want %v", got, ids[2:])
	}
	counts := c.Counts()
	if counts[JobCompleted] != 2 || counts[JobRemoved] != 1 || counts[JobIdle] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if idle := c.IdleRequests(); len(idle) != 1 {
		t.Errorf("idle requests = %d, want 1", len(idle))
	}
	if n := reg.Counter("pool_ca_jobs_forgotten_total").Value(); n != 2 {
		t.Errorf("pool_ca_jobs_forgotten_total = %d, want 2", n)
	}
	// The submission-order list does not keep what the queue forgot.
	settleN(t, c, 100)
	if len(c.order) > 2*len(c.jobs) || len(c.jobs) != 4 {
		t.Errorf("order holds %d IDs for %d jobs", len(c.order), len(c.jobs))
	}
}

// A settled job whose text does not parse back reads as an empty ad;
// nothing panics.
func TestSettledJobUnparsableText(t *testing.T) {
	c := newCA(t)
	id := settleN(t, c, 1)[0]
	c.jobs[id].text = "[ Cmd = "
	j, ok := c.Job(id)
	if !ok || j.Ad == nil || j.Ad.Len() != 0 || j.Status != JobCompleted {
		t.Fatalf("job = %+v, %v", j, ok)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].Ad == nil {
		t.Fatalf("snapshot = %+v", snap)
	}
}
