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

// maxSettledJobs bounds the settled (Completed or Removed) entries one
// queue remembers. Past it the queue forgets its longest-settled
// entries: Job no longer finds them and Snapshot and Counts leave them
// out (pool_ca_jobs_forgotten_total counts them).
const maxSettledJobs = 1 << 16

// Customer is a Customer Agent: one owner, one queue.
type Customer struct {
	mu     sync.Mutex
	owner  string
	nextID int
	jobs   map[int]*entry
	// order is submission order. It may still hold forgotten IDs,
	// until compactLocked drops them.
	order []int
	// settled counts the leading entries of order that are Completed,
	// Removed or forgotten. None of these is ever left, so IdleRequests
	// starts after them: what a queue answers per match costs the jobs
	// still in play, not every job it ever held.
	settled int
	// retired lists the settled entries in the order they settled, the
	// order they are forgotten in once there are more than settledCap.
	retired    []int
	settledCap int
	forgotten  *obs.Counter
	env        *classad.Env
}

// entry is one queue entry as the queue keeps it. A settled job is
// read far less often than it is kept, so when it settles its ad is
// unparsed once and the parse tree dropped (Ad is nil from then on);
// Job and Snapshot parse the text back.
type entry struct {
	Job
	text string
}

// job returns a copy of the entry with its ad. A settled ad whose text
// does not parse back reads as an empty ad rather than failing.
func (e *entry) job() Job {
	j := e.Job
	if j.Ad == nil {
		ad, err := classad.Parse(e.text)
		if err != nil {
			ad = classad.NewAd()
		}
		j.Ad = ad
	}
	return j
}

// NewCustomer builds a CA for owner.
func NewCustomer(owner string, env *classad.Env) *Customer {
	if env == nil {
		env = classad.DefaultEnv()
	}
	return &Customer{owner: owner, jobs: make(map[int]*entry), settledCap: maxSettledJobs, env: env}
}

// Instrument counts forgotten settled entries in reg
// (pool_ca_jobs_forgotten_total).
func (c *Customer) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forgotten = reg.Counter("pool_ca_jobs_forgotten_total")
}

// Owner returns the customer identity.
func (c *Customer) Owner() string { return c.owner }

// Submit queues a job ad, stamping Owner, QDate and JobId the way the
// deployed submission tool does, and returns a copy of the queue entry
// (Job explains why a copy). work is the job's total demand in
// CPU-seconds (used by the simulator; zero is fine for protocol-only
// use).
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
	j := Job{ID: c.nextID, Ad: stamped, Status: JobIdle, Work: work}
	c.jobs[j.ID] = &entry{Job: j}
	c.order = append(c.order, j.ID)
	return &j
}

// Remove withdraws a job from the queue.
func (c *Customer) Remove(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("agent: no job %d in %s's queue", id, c.owner)
	}
	if j.Ad != nil {
		c.settleLocked(j)
	}
	j.Status = JobRemoved
	return nil
}

// settleLocked keeps a job that just settled as text, and forgets the
// longest-settled entries past the bound.
func (c *Customer) settleLocked(e *entry) {
	e.text = e.Ad.String()
	e.Ad = nil
	c.retired = append(c.retired, e.ID)
	for len(c.retired) > c.settledCap {
		delete(c.jobs, c.retired[0])
		c.retired = c.retired[1:]
		c.forgotten.Inc()
	}
	if len(c.order)-len(c.jobs) > len(c.jobs) {
		c.compactLocked()
	}
}

// compactLocked drops forgotten IDs from order.
func (c *Customer) compactLocked() {
	live := c.order[:0]
	for _, id := range c.order {
		if _, ok := c.jobs[id]; ok {
			live = append(live, id)
		}
	}
	clear(c.order[len(live):])
	c.order = live
	c.settled = 0
}

// Job fetches a copy of a queue entry by ID. A copy, not a pointer:
// the queue mutates under its own lock, and handing out aliases would
// let callers observe torn states. A settled job's ad is parsed back
// from its text on each call.
func (c *Customer) Job(id int) (Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.job(), true
}

// IdleRequests returns the request ads of all idle jobs, in submission
// order — what the CA hands the matchmaker when the negotiation cycle
// asks for requests.
func (c *Customer) IdleRequests() []*classad.Ad {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.settled < len(c.order) {
		if j, ok := c.jobs[c.order[c.settled]]; ok && j.Ad != nil {
			break
		}
		c.settled++
	}
	var out []*classad.Ad
	for _, id := range c.order[c.settled:] {
		if j, ok := c.jobs[id]; ok && j.Status == JobIdle {
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
		c.settleLocked(j)
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
	out := make([]Job, 0, len(c.jobs))
	for _, id := range c.order {
		if j, ok := c.jobs[id]; ok {
			out = append(out, j.job())
		}
	}
	return out
}
