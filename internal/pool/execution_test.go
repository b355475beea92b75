package pool

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/remote"
)

// execJob builds a job ad that executes for real: remote syscalls
// against the CA's shadow, reading "in" and writing "out".
func execJob() *classad.Ad {
	return classad.MustParse(`[
		Type = "Job";
		Cmd  = "run_sim";
		WantRemoteSyscalls = 1;
		WantCheckpoint = 1;
		In  = "in";
		Out = "out";
		Memory = 31;
		Constraint = other.Type == "Machine";
	]`)
}

// execPool stands up a manager, one RA and one execution-enabled CA.
func execPool(t *testing.T, input []byte) (*Manager, *ResourceDaemon, *CustomerDaemon, *remote.FileStore) {
	t.Helper()
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	fs := remote.NewFileStore()
	fs.Put("in", input)
	if _, err := ca.EnableExecution(fs); err != nil {
		t.Fatal(err)
	}
	return mgr, ra, ca, fs
}

func waitStatus(t *testing.T, ca *CustomerDaemon, id int, want agent.JobStatus, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, _ := ca.CA.Job(id); j.Status == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := ca.CA.Job(id)
	t.Fatalf("job %d stuck at %s, want %s", id, j.Status, want)
}

// TestExecutionEndToEnd: match → claim → starter runs the job through
// the shadow → JOB_DONE settles the queue → claim released — the full
// Condor lifecycle over real sockets with real (synthetic) work.
func TestExecutionEndToEnd(t *testing.T) {
	input := bytes.Repeat([]byte("high throughput, not high performance. "), 100)
	mgr, ra, ca, fs := execPool(t, input)
	job := ca.CA.Submit(execJob(), 100)

	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("cycle: %+v errors=%v", res, res.Errors)
	}
	// The starter runs asynchronously; completion flows back as
	// JOB_DONE.
	waitStatus(t, ca, job.ID, agent.JobCompleted, 10*time.Second)

	got, _ := fs.Get("out")
	want := remote.ExpectedOutput(input, 64)
	if !bytes.Equal(got, want) {
		t.Errorf("output mismatch: %d vs %d bytes", len(got), len(want))
	}
	// The RA released its claim after completion.
	deadline := time.Now().Add(5 * time.Second)
	for ra.RA.State() != agent.StateUnclaimed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state = %s after completion", ra.RA.State())
	}
}

// TestExecutionSurvivesDaemonEviction: the owner reclaims the machine
// mid-run; the starter is cancelled, the job requeues, the next cycle
// re-matches it, and it resumes from the checkpoint — final output
// still byte-identical.
func TestExecutionSurvivesDaemonEviction(t *testing.T) {
	requireTracedLifecycle(t)
	// Enough records that the run takes a while (~6400 steps).
	input := bytes.Repeat([]byte("x"), 64*6400)
	mgr, ra, ca, fs := execPool(t, input)
	job := ca.CA.Submit(execJob(), 100)

	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("cycle: %+v", res)
	}
	waitStatus(t, ca, job.ID, agent.JobRunning, 5*time.Second)

	// Let the starter make some progress, then the owner returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := ca.Shadow().Checkpoint("raman/job1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint materialized")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ra.EvictClaim() {
		t.Fatal("eviction found no claim")
	}
	waitStatus(t, ca, job.ID, agent.JobIdle, 5*time.Second)
	if ra.RA.State() != agent.StateOwner {
		t.Errorf("RA state after eviction = %s", ra.RA.State())
	}

	// The owner leaves; the next cycle re-matches and the job
	// resumes from its checkpoint.
	ra.RA.OwnerLeft()
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("second cycle: %+v errors=%v", res, res.Errors)
	}
	waitStatus(t, ca, job.ID, agent.JobCompleted, 30*time.Second)

	got, _ := fs.Get("out")
	want := remote.ExpectedOutput(input, 64)
	if !bytes.Equal(got, want) {
		t.Errorf("output corrupted across eviction: %d vs %d bytes", len(got), len(want))
	}
}

// TestNonExecutingJobsUnaffected: jobs without the execution
// attributes behave exactly as before — claim held until the CA calls
// Complete.
func TestNonExecutingJobsUnaffected(t *testing.T) {
	mgr, ra, ca, _ := execPool(t, nil)
	job := ca.CA.Submit(classad.Figure2(), 100)
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("cycle: %+v", res)
	}
	waitStatus(t, ca, job.ID, agent.JobRunning, 5*time.Second)
	// It stays running (no starter to finish it) until completed
	// explicitly.
	time.Sleep(50 * time.Millisecond)
	if j, _ := ca.CA.Job(job.ID); j.Status != agent.JobRunning {
		t.Fatalf("status = %s", j.Status)
	}
	if err := ca.Complete(job.ID); err != nil {
		t.Fatal(err)
	}
	if ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state = %s", ra.RA.State())
	}
}
