package service

import (
	"repro/internal/sched"
)

// Candidate summarises one schedulable job for a cross-job Policy decision.
type Candidate struct {
	ID              uint64
	Seq             uint64 // submission order, ascending
	Priority        int
	Weight          float64
	Tenant          string  // owning tenant (DefaultTenant when unattributed)
	TenantWeight    float64 // tenant's share under TenantFairShare
	PendingChunks   int
	AssignedPhotons int64
}

// Policy chooses which job's chunk the next idle worker receives. The
// registry holds its lock across calls, so implementations may keep state
// without their own synchronisation. Pick receives at least one candidate
// and returns an index into the slice; Charge is called with the chosen
// candidate after its job is granted work photons; Forget is called when a
// job leaves the schedulable set (done or cancelled).
type Policy interface {
	Name() string
	Pick(cands []Candidate) int
	Charge(c Candidate, workPhotons int64)
	Forget(id uint64)
}

type noAccounting struct{}

func (noAccounting) Charge(Candidate, int64) {}
func (noAccounting) Forget(uint64)           {}

// fifoPolicy serves jobs strictly in submission order.
type fifoPolicy struct{ noAccounting }

// FIFO returns the first-come-first-served cross-job policy: the oldest
// job with pending work drains completely before the next starts.
func FIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string { return "fifo" }

func (fifoPolicy) Pick(cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Seq < cands[best].Seq {
			best = i
		}
	}
	return best
}

// priorityPolicy serves the highest-priority job first, FIFO within a tier.
type priorityPolicy struct{ noAccounting }

// Priority returns the strict-priority policy: higher JobSpec.Priority
// pre-empts lower at every assignment; equal priorities drain FIFO.
func Priority() Policy { return priorityPolicy{} }

func (priorityPolicy) Name() string { return "priority" }

func (priorityPolicy) Pick(cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Priority > cands[best].Priority ||
			(c.Priority == cands[best].Priority && c.Seq < cands[best].Seq) {
			best = i
		}
	}
	return best
}

// tenantFairPolicy serves tenants by weighted start-time fair queueing and
// jobs within the picked tenant the same way — sched.TwoLevel with outer
// weights from the tenant table and inner weights from JobSpec.Weight.
// With oneTenant set every candidate is placed in a single tenant, which
// leaves only the inner, job-level competition: single-level fair share.
type tenantFairPolicy struct {
	tl        *sched.TwoLevel
	tj        []sched.TenantJob // Pick scratch, reused under the registry lock
	oneTenant bool
}

// FairShare returns the weighted fair-share policy: concurrent jobs
// receive fleet throughput proportional to JobSpec.Weight, whatever their
// tenant, and a job submitted mid-run competes from the current service
// frontier instead of starving the incumbents.
func FairShare() Policy {
	return &tenantFairPolicy{tl: sched.NewTwoLevel(), oneTenant: true}
}

// TenantFairShare returns the two-level tenant→job fair-share policy: each
// tenant receives fleet throughput proportional to its table weight no
// matter how many jobs it queues, and a tenant's allocation splits across
// its own jobs by job weight.
func TenantFairShare() Policy { return &tenantFairPolicy{tl: sched.NewTwoLevel()} }

func (p *tenantFairPolicy) Name() string {
	if p.oneTenant {
		return "fair-share"
	}
	return "tenant-fair"
}

func (p *tenantFairPolicy) Pick(cands []Candidate) int {
	tj := p.tj[:0]
	for _, c := range cands {
		tenant, tweight := c.Tenant, c.TenantWeight
		if p.oneTenant {
			tenant, tweight = "", 1
		}
		tj = append(tj, sched.TenantJob{
			Tenant: tenant, TenantWeight: tweight,
			Job: c.ID, JobWeight: c.Weight,
		})
	}
	p.tj = tj
	return p.tl.Pick(tj)
}

func (p *tenantFairPolicy) Charge(c Candidate, workPhotons int64) {
	p.tl.Charge(c.ID, float64(workPhotons))
}

func (p *tenantFairPolicy) Forget(id uint64) { p.tl.Forget(id) }

// PolicyByName maps the CLI spelling to a policy; unknown names fall back
// to FIFO with ok=false.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "fifo", "":
		return FIFO(), true
	case "priority":
		return Priority(), true
	case "fair", "fair-share", "fairshare":
		return FairShare(), true
	case "tenant-fair", "tenant", "tenantfair":
		return TenantFairShare(), true
	default:
		return FIFO(), false
	}
}
