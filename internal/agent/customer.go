package agent

import (
	"fmt"
	"sync"

	"repro/internal/classad"
	"repro/internal/obs"
)

// JobStatus is the lifecycle state of a queued job.
type JobStatus string

// Job states. Idle jobs advertise; Running jobs hold a claim; evicted
// jobs return to Idle (the CA resubmits them); Completed jobs leave
// the negotiation.
const (
	JobIdle      JobStatus = "Idle"
	JobRunning   JobStatus = "Running"
	JobCompleted JobStatus = "Completed"
	JobRemoved   JobStatus = "Removed"
)

// AttrJobID is the attribute the CA stamps on request ads so that
// match notifications can be routed back to the queue entry.
const AttrJobID = "JobId"

// Job is one queue entry.
type Job struct {
	// ID is the CA-assigned queue identifier.
	ID int
	// Ad is the job's classad (the Figure 2 shape).
	Ad *classad.Ad
	// Status is the lifecycle state.
	Status JobStatus
	// Resource names the machine running the job, when Running.
	Resource string
	// Work is the remaining work in CPU-seconds (simulation
	// currency); Done accumulates completed work. An eviction loses
	// progress since the last checkpoint.
	Work, Done float64
	// Checkpointed is the work safely banked by checkpointing; an
	// evicted job resumes from here (WantCheckpoint in Figure 2).
	Checkpointed float64
	// Evictions counts how many times the job lost its machine.
	Evictions int
}

// Customer is a Customer Agent: one owner, one queue.
type Customer struct {
	mu     sync.Mutex
	owner  string
	nextID int
	jobs   map[int]*Job
	order  []int
	// settled counts the leading entries of order that are Completed or
	// Removed. Neither state is ever left, so IdleRequests starts after
	// them: what a queue answers per match costs the jobs still in play,
	// not every job it ever held.
	settled int
	env     *classad.Env
}

// NewCustomer builds a CA for owner.
func NewCustomer(owner string, env *classad.Env) *Customer {
	if env == nil {
		env = classad.DefaultEnv()
	}
	return &Customer{owner: owner, jobs: make(map[int]*Job), env: env}
}

// Owner returns the customer identity.
func (c *Customer) Owner() string { return c.owner }

// Submit queues a job ad, stamping Owner, QDate and JobId the way the
// deployed submission tool does, and returns the queue entry. work is
// the job's total demand in CPU-seconds (used by the simulator; zero
// is fine for protocol-only use).
func (c *Customer) Submit(ad *classad.Ad, work float64) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	stamped := ad.Copy()
	stamped.SetString(classad.AttrOwner, c.owner)
	stamped.SetInt(AttrJobID, int64(c.nextID))
	if _, ok := stamped.Lookup("QDate"); !ok {
		stamped.SetInt("QDate", c.env.Now())
	}
	if _, ok := stamped.Lookup(classad.AttrType); !ok {
		stamped.SetString(classad.AttrType, "Job")
	}
	// Every job is traceable from birth: direct submissions (tests,
	// simulator) that bypass the CA daemon's submit handler still get a
	// trace ID, so negotiation spans have something to hang off.
	if classad.TraceOf(stamped) == "" {
		stamped.SetString(classad.AttrTraceID, obs.NewTraceID())
	}
	j := &Job{ID: c.nextID, Ad: stamped, Status: JobIdle, Work: work}
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	return j
}

// Remove withdraws a job from the queue.
func (c *Customer) Remove(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("agent: no job %d in %s's queue", id, c.owner)
	}
	j.Status = JobRemoved
	return nil
}

// Job fetches a copy of a queue entry by ID. A copy, not a pointer:
// the queue mutates under its own lock, and handing out aliases would
// let callers observe torn states.
func (c *Customer) Job(id int) (Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// IdleRequests returns the request ads of all idle jobs, in submission
// order — what the CA hands the matchmaker when the negotiation cycle
// asks for requests.
func (c *Customer) IdleRequests() []*classad.Ad {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.settled < len(c.order) {
		if st := c.jobs[c.order[c.settled]].Status; st != JobCompleted && st != JobRemoved {
			break
		}
		c.settled++
	}
	var out []*classad.Ad
	for _, id := range c.order[c.settled:] {
		if j := c.jobs[id]; j.Status == JobIdle {
			out = append(out, j.Ad)
		}
	}
	return out
}

// Counts reports queue occupancy by status.
func (c *Customer) Counts() map[JobStatus]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[JobStatus]int)
	for _, j := range c.jobs {
		out[j.Status]++
	}
	return out
}

// JobIDOf extracts the queue ID a request ad was stamped with.
func JobIDOf(ad *classad.Ad) (int, bool) {
	v := ad.Eval(AttrJobID)
	n, ok := v.IntVal()
	return int(n), ok
}

// MarkRunning transitions a job to Running on machine resource.
func (c *Customer) MarkRunning(id int, resource string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("agent: no job %d", id)
	}
	if j.Status != JobIdle {
		return fmt.Errorf("agent: job %d is %s, cannot start", id, j.Status)
	}
	j.Status = JobRunning
	j.Resource = resource
	return nil
}

// Progress credits CPU-seconds to a running job; it reports true when
// the job completes. checkpoint controls whether the progress is
// banked against eviction.
func (c *Customer) Progress(id int, cpu float64, checkpoint bool) (completed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return false, fmt.Errorf("agent: no job %d", id)
	}
	if j.Status != JobRunning {
		return false, fmt.Errorf("agent: job %d is %s, cannot progress", id, j.Status)
	}
	j.Done += cpu
	if checkpoint {
		j.Checkpointed = j.Done
	}
	if j.Done >= j.Work {
		j.Status = JobCompleted
		j.Resource = ""
		j.Ad.SetInt("CompletionDate", c.env.Now())
		return true, nil
	}
	return false, nil
}

// Evicted handles a preemption notice: the job loses unbanked progress
// and returns to Idle for resubmission in the next cycle.
func (c *Customer) Evicted(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("agent: no job %d", id)
	}
	if j.Status != JobRunning {
		return fmt.Errorf("agent: job %d is %s, cannot evict", id, j.Status)
	}
	j.Status = JobIdle
	j.Resource = ""
	j.Done = j.Checkpointed
	j.Evictions++
	return nil
}

// Snapshot returns copies of all queue entries, in submission order.
func (c *Customer) Snapshot() []Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Job, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, *c.jobs[id])
	}
	return out
}
