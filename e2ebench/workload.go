package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
)

// workload is one traffic mix the benchmark drives through the gateway.
// Why and noMove are part of the record: each run prints them, so a
// number is never read without the reason the workload exists and the
// metrics a change to the other layers should leave alone.
type workload struct {
	name   string
	why    string
	noMove string
	// closed: one client sends the next job only after the previous
	// result is in hand. Otherwise arrivals follow a seeded Poisson
	// schedule at rate jobs per second, whatever the system does.
	closed bool
	rate   float64
}

var workloads = []workload{
	{
		name: "physics",
		why: "the paper's experiment: time to an N-photon adult-head result on the fleet; " +
			"the kernel does nearly all the work, the control plane almost none",
		noMove: "control-plane changes (ingress, journal, dispatch, wire, seal, gateway) " +
			"should not move photons_per_s or latency_p50_ms here",
		closed: true,
	},
	{
		name: "swarm",
		why: "many distinct near-zero-physics jobs (one-photon chunks, tens per job) from two " +
			"tenants: the control plane does nearly all the work, the kernel almost none",
		noMove: "kernel and RNG-throughput changes should not move latency or jobs_per_s here; " +
			"mc.kernel_photons_per_s moving alone must leave swarm unchanged",
		rate: swarmRate,
	},
	{
		name: "repeat",
		why: "skewed re-submissions of a small pool of path-grid specs beside fresh ones: " +
			"gateway-tier and physics-index cache hits with large result bodies, next to journaled misses",
		noMove: "kernel changes should not move latency_p50_ms (hits); cache or seal changes " +
			"that speed hits must not slow misses (latency_p90_ms) or grow peak_rss_mb",
		rate: repeatRate,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed workload parameters. The open-loop rates sit well below the knee
// of a 2-vCPU host (there, swarm latency is flat up to 160 jobs/s and
// rises by 320): the workers and daemons must be idle part of the time,
// or latency measures queue growth instead of the path.
const (
	swarmRate  = 60.0 // jobs/s
	repeatRate = 10.0 // jobs/s

	// physics: one job is physicsChunks chunks of physicsChunkPhotons,
	// each fanned over nproc sub-streams; about a second on a 2-vCPU host.
	physicsChunks       = 6
	physicsChunkPhotons = 1000

	// swarm: swarmMinChunks..swarmMaxChunks one-photon chunks per job.
	swarmMinChunks = 20
	swarmMaxChunks = 40

	// repeat: a pool of repeatPool path-grid specs, drawn with Zipf
	// weights 1/(rank+1)^repeatZipf; repeatFresh of all draws are fresh
	// specs instead, and repeatLoose of the draws of a precision-targeted
	// pool entry ask for the looser repeatLooseRelErr.
	repeatPool         = 8
	repeatZipf         = 1.1
	repeatFresh        = 0.25
	repeatLoose        = 0.5
	repeatPhotons      = 4000
	repeatChunkPhotons = 1000
	repeatRelErr       = 0.02
	repeatLooseRelErr  = 0.04
	// repeatTargetCap caps a targeted pool job at the service's default
	// photon floor (16 chunks), which already meets repeatRelErr. Without
	// it the stop would land wherever the worker's result batch ended, and
	// the photons each hit serves would vary from run to run.
	repeatTargetCap     = service.DefaultMinTargetChunks * repeatChunkPhotons
	repeatGridN         = 32
	repeatGridEdgeMM    = 6.0
	repeatSlabMM        = 3.0
	repeatDetectorRMaxM = 10.0
)

// repeatTargeted marks the pool ranks submitted as precision-targeted
// jobs; the rest are fixed-count. Ranks 1 and 3 get about a quarter of the
// pool draws between them under the Zipf weights.
var repeatTargeted = map[int]bool{1: true, 3: true}

// whiteMatterMM is the finite depth given to the head model's white
// matter. tissue.AdultHead's white matter is semi-infinite (+Inf
// thickness), and encoding/json cannot encode +Inf, so the paper's own
// model cannot be submitted over HTTP: json.Marshal of a JobRequest
// carrying it fails with "json: unsupported value: +Inf". At 50 mm under
// 16 mm of scalp, skull, CSF and grey matter no photon reaches the bottom
// (headmodel_test.go checks the diffuse reflectance against the
// semi-infinite model).
const whiteMatterMM = 50

// headStandIn is tissue.AdultHead with the white matter cut at
// whiteMatterMM, so it survives JSON.
func headStandIn() *tissue.Model {
	m := tissue.AdultHead()
	m.Layers[len(m.Layers)-1].Thickness = whiteMatterMM
	return m
}

// physicsSpec is the paper's Table 1 head under a pencil beam, scored by
// an annulus at 25–35 mm: a 30 mm source–detector separation.
func physicsSpec() *mc.Spec {
	return mc.NewSpec(headStandIn(), source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 25, RMax: 35})
}

// swarmSpec is a thin scalp slab: a photon costs microseconds.
func swarmSpec() *mc.Spec {
	return mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 2),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

// repeatSpec scores detected-photon paths into a 32³ grid, so its tally —
// and every result body — is a few hundred kilobytes of JSON.
func repeatSpec() *mc.Spec {
	s := mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, repeatSlabMM),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 0, RMax: repeatDetectorRMaxM})
	s.PathGrid = &mc.GridSpec{N: repeatGridN, Edge: repeatGridEdgeMM}
	return s
}

// jobInput is one submission: the request, its encoded body and tenant,
// and the submission whose computation produces its tally — itself for a
// fresh job, the pool entry for a re-submission the caches answer.
type jobInput struct {
	req    service.JobRequest
	body   []byte
	tenant string
	source *jobInput
	// verify: check the result against a local reference computation
	// (every swarm and repeat job; a seeded sample of physics jobs).
	verify bool
}

func newInput(req service.JobRequest, tenant string, verify bool) (*jobInput, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode job request: %w", err)
	}
	in := &jobInput{req: req, body: b, tenant: tenant, verify: verify}
	in.source = in
	return in, nil
}

// arrival is one open-loop submission, due at an offset from the start of
// the measured window.
type arrival struct {
	due time.Duration
	in  *jobInput
}

// plan is a workload's inputs for one run, a pure function of (workload,
// seed, seconds).
type plan struct {
	w        workload
	seconds  int
	arrivals []arrival   // open loop
	physics  *physicsGen // closed loop
	warm     []*jobInput // run to completion before the window
}

// physicsGen yields the closed loop's jobs on demand: the count depends
// on how fast the system answers.
type physicsGen struct {
	seed   uint64
	fan    int
	sample int // the job index verified against a full local reference
	made   []*jobInput
}

// job returns the i-th job, the same value on every call, so references
// memoized for one leg serve the next.
func (g *physicsGen) job(i int) (*jobInput, error) {
	for len(g.made) <= i {
		in, err := g.make(len(g.made))
		if err != nil {
			return nil, err
		}
		g.made = append(g.made, in)
	}
	return g.made[i], nil
}

func (g *physicsGen) make(i int) (*jobInput, error) {
	return newInput(service.JobRequest{
		Spec:         physicsSpec(),
		Photons:      physicsChunks * physicsChunkPhotons,
		ChunkPhotons: physicsChunkPhotons,
		Seed:         mix(g.seed, uint64(i)),
		Fan:          g.fan,
		Label:        "physics",
	}, "tenant-a", i == g.sample)
}

// mix derives a well-spread job seed from the run seed and an index
// (splitmix64 finalizer), so jobs of different runs never share a seed
// and therefore never share a cache key.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poissonOffsets returns n arrival offsets in [0, window) distributed as a
// Poisson process conditioned on n arrivals: sorted uniform draws. Fixing
// n (= rate × window) keeps the offered work identical across seeds while
// the arrival pattern stays random.
func poissonOffsets(r *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func newPlan(w workload, seed uint64, seconds int) (*plan, error) {
	p := &plan{w: w, seconds: seconds}
	r := rand.New(rand.NewPCG(seed, 0x6d63_6265_6e63_68))
	window := time.Duration(seconds) * time.Second
	switch w.name {
	case "physics":
		p.physics = &physicsGen{seed: seed, fan: runtime.NumCPU(), sample: r.IntN(4)}
	case "swarm":
		n := int(math.Round(w.rate * float64(seconds)))
		for k, due := range poissonOffsets(r, n, window) {
			chunks := swarmMinChunks + r.IntN(swarmMaxChunks-swarmMinChunks+1)
			tenant := "tenant-a"
			if r.IntN(2) == 1 {
				tenant = "tenant-b"
			}
			in, err := newInput(service.JobRequest{
				Spec: swarmSpec(), Photons: int64(chunks), ChunkPhotons: 1,
				Seed: mix(seed, uint64(k)), Label: "swarm",
			}, tenant, true)
			if err != nil {
				return nil, err
			}
			p.arrivals = append(p.arrivals, arrival{due: due, in: in})
		}
	case "repeat":
		pool := make([]*jobInput, repeatPool)
		weights := make([]float64, repeatPool)
		for e := range pool {
			req := service.JobRequest{
				Spec: repeatSpec(), ChunkPhotons: repeatChunkPhotons,
				Seed: mix(seed, uint64(1_000_000+e)), Label: "repeat-pool",
			}
			if repeatTargeted[e] {
				req.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: repeatRelErr,
					MaxPhotons: repeatTargetCap}
			} else {
				req.Photons = repeatPhotons
			}
			in, err := newInput(req, "tenant-a", true)
			if err != nil {
				return nil, err
			}
			pool[e] = in
			weights[e] = 1 / math.Pow(float64(e+1), repeatZipf)
		}
		p.warm = pool
		n := int(math.Round(w.rate * float64(seconds)))
		for k, d := range repeatDraws(r, n, window, weights) {
			var in *jobInput
			var err error
			if d.entry < 0 {
				in, err = newInput(service.JobRequest{
					Spec: repeatSpec(), Photons: repeatPhotons, ChunkPhotons: repeatChunkPhotons,
					Seed: mix(seed, uint64(2_000_000+k)), Label: "repeat-fresh",
				}, "tenant-b", true)
			} else {
				req := pool[d.entry].req
				if d.loose {
					req.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: repeatLooseRelErr,
						MaxPhotons: repeatTargetCap}
				}
				in, err = newInput(req, "tenant-a", true)
				if in != nil {
					in.source = pool[d.entry]
				}
			}
			if err != nil {
				return nil, err
			}
			p.arrivals = append(p.arrivals, arrival{due: d.due, in: in})
		}
	default:
		return nil, fmt.Errorf("no plan for workload %q", w.name)
	}
	return p, nil
}

// repeatDraw is one repeat arrival: a pool entry (loose: at the looser
// precision target) or, with entry −1, a fresh spec.
type repeatDraw struct {
	due   time.Duration
	entry int
	loose bool
}

// repeatDraws lays out n repeat arrivals. The mix is stratified, not
// sampled: exactly repeatFresh of the draws are fresh, each pool entry
// gets its Zipf share of the rest (largest remainder), and exactly
// repeatLoose of a targeted entry's draws are looser. Only the order and
// the arrival times are random. A mix that varied with the seed would
// move the hit/miss boundary under latency_p90_ms and the photons served
// per second from run to run.
func repeatDraws(r *rand.Rand, n int, window time.Duration, weights []float64) []repeatDraw {
	fresh := int(math.Round(repeatFresh * float64(n)))
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n - fresh
	for e, w := range weights {
		share := float64(n-fresh) * w / total
		counts[e] = int(share)
		rem[e] = share - float64(counts[e])
		left -= counts[e]
	}
	order := make([]int, len(weights))
	for e := range order {
		order[e] = e
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, e := range order[:left] {
		counts[e]++
	}
	draws := make([]repeatDraw, 0, n)
	for i := 0; i < fresh; i++ {
		draws = append(draws, repeatDraw{entry: -1})
	}
	for e, c := range counts {
		loose := 0
		if repeatTargeted[e] {
			loose = int(math.Round(repeatLoose * float64(c)))
		}
		for i := 0; i < c; i++ {
			draws = append(draws, repeatDraw{entry: e, loose: i < loose})
		}
	}
	r.Shuffle(len(draws), func(a, b int) { draws[a], draws[b] = draws[b], draws[a] })
	for i, due := range poissonOffsets(r, n, window) {
		draws[i].due = due
	}
	return draws
}

// inputs lists every submission of the plan known before the run: the
// warm-up pool and the open-loop arrivals (the closed loop's jobs are
// generated as it goes).
func (p *plan) inputs() []*jobInput {
	out := append([]*jobInput(nil), p.warm...)
	for _, a := range p.arrivals {
		out = append(out, a.in)
	}
	return out
}
