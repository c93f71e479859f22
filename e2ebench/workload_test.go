package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestPlansAreAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.closed {
			continue
		}
		a, err := newPlan(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newPlan(w, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.arrivals) != int(math.Round(w.rate*3)) || len(a.arrivals) != len(b.arrivals) {
			t.Fatalf("%s: %d and %d arrivals, want %g", w.name, len(a.arrivals), len(b.arrivals), w.rate*3)
		}
		same := true
		for i := range a.arrivals {
			x, y, z := a.arrivals[i], b.arrivals[i], c.arrivals[i]
			if x.due != y.due || !bytes.Equal(x.in.body, y.in.body) || x.in.tenant != y.in.tenant {
				t.Fatalf("%s: arrival %d differs between two plans of seed 7", w.name, i)
			}
			if x.due != z.due || !bytes.Equal(x.in.body, z.in.body) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave identical plans", w.name)
		}
	}
}

func TestPhysicsJobsAreStableAndDistinct(t *testing.T) {
	w, _ := workloadByName("physics")
	a, _ := newPlan(w, 3, 5)
	b, _ := newPlan(w, 3, 5)
	if a.physics.sample != b.physics.sample || a.physics.sample < 0 || a.physics.sample > 3 {
		t.Fatalf("verified sample %d / %d, want the same index in [0,3]", a.physics.sample, b.physics.sample)
	}
	j0, _ := a.physics.job(0)
	again, _ := a.physics.job(0)
	j1, _ := a.physics.job(1)
	other, _ := b.physics.job(0)
	if j0 != again {
		t.Error("job(0) returned a new value on the second call")
	}
	if !bytes.Equal(j0.body, other.body) {
		t.Error("same seed, different job 0")
	}
	if bytes.Equal(j0.body, j1.body) {
		t.Error("jobs 0 and 1 share a body: the second would be a cache hit")
	}
}

func TestSwarmJobsAreDistinctAndTwoTenant(t *testing.T) {
	w, _ := workloadByName("swarm")
	p, err := newPlan(w, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]bool{}
	tenants := map[string]int{}
	for _, a := range p.arrivals {
		if bodies[string(a.in.body)] {
			t.Fatal("swarm repeated a body")
		}
		bodies[string(a.in.body)] = true
		tenants[a.in.tenant]++
		if a.in.req.ChunkPhotons != 1 || a.in.req.Photons < swarmMinChunks || a.in.req.Photons > swarmMaxChunks {
			t.Fatalf("swarm job %d photons in %d-photon chunks", a.in.req.Photons, a.in.req.ChunkPhotons)
		}
	}
	if len(tenants) != 2 {
		t.Errorf("tenants %v, want two", tenants)
	}
}

func TestRepeatFreshShareIsExact(t *testing.T) {
	w, _ := workloadByName("repeat")
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := newPlan(w, seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		fresh, loose := 0, 0
		for _, a := range p.arrivals {
			if a.in.source == a.in {
				fresh++
			} else if a.in.req.Target != nil && a.in.req.Target.RelErr == repeatLooseRelErr {
				loose++
			}
		}
		if want := int(math.Round(repeatFresh * float64(len(p.arrivals)))); fresh != want {
			t.Errorf("seed %d: %d fresh of %d, want %d", seed, fresh, len(p.arrivals), want)
		}
		if loose == 0 {
			t.Errorf("seed %d: no looser precision-targeted re-submission", seed)
		}
		if len(p.warm) != repeatPool {
			t.Errorf("seed %d: %d warm-up jobs, want the %d-entry pool", seed, len(p.warm), repeatPool)
		}
	}
}

func TestPoissonOffsetsSortedInWindow(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	window := 2 * time.Second
	offs := poissonOffsets(r, 500, window)
	for i, o := range offs {
		if o < 0 || o >= window {
			t.Fatalf("offset %v outside [0,%v)", o, window)
		}
		if i > 0 && o < offs[i-1] {
			t.Fatalf("offsets not sorted at %d", i)
		}
	}
	// Gaps of a Poisson process are exponential: mean ≈ window/n.
	var sum time.Duration
	for i := 1; i < len(offs); i++ {
		sum += offs[i] - offs[i-1]
	}
	mean := float64(sum) / float64(len(offs)-1)
	if want := float64(window) / 500; math.Abs(mean-want) > 0.2*want {
		t.Errorf("mean gap %v, want about %v", time.Duration(mean), time.Duration(want))
	}
}

func TestPollScheduleBoundsDetectionError(t *testing.T) {
	polls := 0
	for off := pollMin; off < 2*time.Second; off = nextPoll(off) {
		next := nextPoll(off)
		gap := next - off
		bound := time.Duration(math.Max(float64(pollMin), pollRho*float64(off))) + time.Microsecond
		if gap < pollMin || gap > bound {
			t.Fatalf("gap %v after %v outside [%v, %v]", gap, off, pollMin, bound)
		}
		polls++
	}
	// 5 ms steps to 250 ms, then 2% steps: about 50 + ln(8)/ln(1.02).
	if polls > 160 {
		t.Errorf("%d polls for a 2 s job", polls)
	}
}
