// Command mcbench measures the repository's headline throughput numbers
// and writes them to a machine-readable JSON file, seeding the performance
// trajectory across PRs (`make bench` → BENCH_pr10.json, alongside the
// committed BENCH_pr2/pr3/pr4/pr7/pr9.json for comparison):
//
//   - photons/sec of the layered kernel (Table 1 adult head),
//   - photons/sec of the voxel kernel (the same head voxelized),
//   - heap allocations per photon for both kernels,
//   - jobs/sec of the service registry draining many small jobs over an
//     in-memory worker fleet. This workload is unchanged since PR 2 for
//     trajectory comparability — and is physics-bound on a small host
//     (the result plane contributes only a few percent), so it moves with
//     kernel speed, not wire speed;
//   - the sharded control plane A/B: the same near-zero-physics workload
//     over one registry vs four independent registries with submissions
//     routed by content key (the mcgate split), measured on this host and
//     modeled under the paper's master-bound campus-LAN parameters. The
//     measured arms share this host's cores, so on a small machine they
//     understate the win; the modeled arms price exactly the serial-master
//     term the sharding divides;
//   - jobs/sec of the *service plane* proper: near-zero-physics jobs
//     drained by the batched pre-reducing clients, so the result plane is
//     measured on its own, not against photon transport, with the
//     per-chunk overhead left after subtracting the same chunks' physics
//     — plus the same workload with the workers' piggybacked telemetry
//     reports on vs off, pricing them (the retired per-chunk result
//     path's A/B lives on in BENCH_pr4.json);
//   - the end-to-end distributed check: one realistic scoring job run
//     locally with RunParallel and over a 3-worker in-memory fleet, with
//     wire bytes per chunk under the gob and compact tally codecs.
//
// -quick shrinks every budget for CI smoke runs (seconds, not minutes);
// its numbers are noisy and only prove the harness still works.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/distsys"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
	"repro/internal/wal"
)

// Report is the JSON schema of the benchmark output.
type Report struct {
	GoVersion string `json:"goVersion"`
	NumCPU    int    `json:"numCPU"`
	Quick     bool   `json:"quick,omitempty"`
	Photons   int64  `json:"photonsPerKernelRun"`

	LayeredPhotonsPerSec   float64 `json:"layeredPhotonsPerSec"`
	LayeredAllocsPerPhoton float64 `json:"layeredAllocsPerPhoton"`
	LayeredBytesPerPhoton  float64 `json:"layeredBytesPerPhoton"`

	VoxelPhotonsPerSec   float64 `json:"voxelPhotonsPerSec"`
	VoxelAllocsPerPhoton float64 `json:"voxelAllocsPerPhoton"`
	VoxelBytesPerPhoton  float64 `json:"voxelBytesPerPhoton"`

	RegistryJobs       int     `json:"registryJobs"`
	RegistryJobsPerSec float64 `json:"registryJobsPerSec"`

	// Service plane: near-zero-physics jobs drained by batched clients.
	ServicePlaneJobs              int     `json:"servicePlaneJobs"`
	ServicePlaneChunksPerJob      int     `json:"servicePlaneChunksPerJob"`
	ServicePlaneBatchedJobsPerSec float64 `json:"servicePlaneBatchedJobsPerSec"`
	// Per-chunk overhead after subtracting the measured compute cost of
	// the same chunks run directly — the fixed per-chunk overhead of the
	// distributed path.
	ServicePlanePhysicsUsPerChunk float64 `json:"servicePlanePhysicsUsPerChunk"`
	OverheadBatchedUsPerChunk     float64 `json:"overheadBatchedUsPerChunk"`

	// Telemetry A/B: the same batched workload with the workers'
	// piggybacked reports on (the default) vs off, server options
	// identical — the cost of the telemetry itself, which must stay
	// within noise (<3%). Best-of over interleaved paired rounds.
	TelemetryOnJobsPerSec  float64 `json:"telemetryOnJobsPerSec"`
	TelemetryOffJobsPerSec float64 `json:"telemetryOffJobsPerSec"`
	TelemetryOverheadPct   float64 `json:"telemetryOverheadPct"`

	// WAL A/B: the same batched service-plane workload with the crash
	// journal off vs on (fsync policy "interval", the production
	// default) — the price of crash durability on the control plane,
	// which must stay within a few percent. Best-of over interleaved
	// paired rounds, like the telemetry A/B.
	WALOffJobsPerSec float64 `json:"walOffJobsPerSec"`
	WALOnJobsPerSec  float64 `json:"walOnJobsPerSec"`
	WALOverheadPct   float64 `json:"walOverheadPct"`

	// Sharded control plane A/B: the batched service-plane workload over
	// one registry vs ShardPlaneShards independent registries, submissions
	// routed by ShardOfKey on the content key — the in-process equivalent
	// of mcgate over N mcqueues. The measured arms run on this host, where
	// every shard master shares the same cores: on a few-core machine they
	// understate the win badly and are reported for trajectory honesty
	// only. The model arms run the cluster package's serial-master event
	// simulation under master-bound campus-LAN parameters (64 workers,
	// 3 ms serial master service, ~30 ms chunks), where the makespan is
	// chunks × MasterService and N masters divide it — the configuration
	// the paper's Section 4 model prices and the one this PR's sharding
	// exists for. ShardModelSpeedup is the headline ≥3× number.
	ShardPlaneShards          int     `json:"shardPlaneShards"`
	ShardPlane1JobsPerSec     float64 `json:"shardPlane1JobsPerSec"`
	ShardPlaneNJobsPerSec     float64 `json:"shardPlaneNJobsPerSec"`
	ShardPlaneMeasuredSpeedup float64 `json:"shardPlaneMeasuredSpeedup"`
	ShardModelWorkers         int     `json:"shardModelWorkers"`
	ShardModelPhotons         int64   `json:"shardModelPhotons"`
	ShardModel1MakespanSec    float64 `json:"shardModel1MakespanSec"`
	ShardModelNMakespanSec    float64 `json:"shardModelNMakespanSec"`
	ShardModelSpeedup         float64 `json:"shardModelSpeedup"`

	// End-to-end distributed vs local on the same realistic job.
	DistributedWorkers       int     `json:"distributedWorkers"`
	LocalPhotonsPerSec       float64 `json:"localPhotonsPerSec"`
	DistributedPhotonsPerSec float64 `json:"distributedPhotonsPerSec"`
	DistributedVsLocal       float64 `json:"distributedVsLocal"`
	DistributedBatches       int64   `json:"distributedBatches"`
	DistributedTallyMerges   int64   `json:"distributedTallyMerges"`
	DistributedMergesPerSec  float64 `json:"distributedMergesPerSec"`

	// Wire cost of one chunk result of the distributed job above.
	WireBytesPerChunkGob     int     `json:"wireBytesPerChunkGob"`
	WireBytesPerChunkCompact int     `json:"wireBytesPerChunkCompact"`
	WireBytesRatio           float64 `json:"wireBytesRatio"`

	Timestamp string `json:"timestamp"`
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output JSON path")
	photons := flag.Int64("photons", 200_000, "photons per kernel benchmark run")
	jobs := flag.Int("jobs", 32, "jobs for the registry benchmark")
	workers := flag.Int("workers", 4, "fleet size for the registry benchmark")
	distPhotons := flag.Int64("dist-photons", 45_000, "photons for the distributed end-to-end benchmark")
	quick := flag.Bool("quick", false, "CI smoke mode: tiny budgets, noisy numbers")
	flag.Parse()

	planeJobs, planeChunks := 48, 16
	if *quick {
		*photons = 5_000
		*jobs = 4
		*workers = 2
		*distPhotons = 3_000
		planeJobs, planeChunks = 6, 8
	}

	rep := Report{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     *quick,
		Photons:   *photons,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	head := tissue.AdultHead()
	layered := &mc.Config{
		Model:    head,
		Detector: detector.Annulus{RMin: 10, RMax: 30},
	}
	rep.LayeredPhotonsPerSec, rep.LayeredAllocsPerPhoton, rep.LayeredBytesPerPhoton =
		kernelRate(layered, *photons)
	fmt.Printf("layered kernel: %.0f photons/sec, %.4f allocs/photon\n",
		rep.LayeredPhotonsPerSec, rep.LayeredAllocsPerPhoton)

	grid, err := voxel.FromModel(head, 120, 120, 80, 1, 1, 0.5)
	if err != nil {
		fatal(err)
	}
	voxCfg := &mc.Config{
		Geometry: grid,
		Detector: detector.Annulus{RMin: 10, RMax: 30},
	}
	rep.VoxelPhotonsPerSec, rep.VoxelAllocsPerPhoton, rep.VoxelBytesPerPhoton =
		kernelRate(voxCfg, *photons)
	fmt.Printf("voxel kernel:   %.0f photons/sec, %.4f allocs/photon\n",
		rep.VoxelPhotonsPerSec, rep.VoxelAllocsPerPhoton)

	rep.RegistryJobs = *jobs
	rep.RegistryJobsPerSec = registryRate(*jobs, *workers, batchedClient)
	fmt.Printf("registry:       %.1f jobs/sec (%d jobs over %d workers; physics-bound)\n",
		rep.RegistryJobsPerSec, *jobs, *workers)

	defaultOpts := service.Options{DrainOnEmpty: true, CacheSize: -1}
	rep.ServicePlaneJobs = planeJobs
	rep.ServicePlaneChunksPerJob = planeChunks
	rep.ServicePlaneBatchedJobsPerSec = servicePlaneRate(planeJobs, planeChunks, *workers, batchedClient, defaultOpts)
	rep.ServicePlanePhysicsUsPerChunk = servicePlanePhysics(planeJobs, planeChunks)
	rep.OverheadBatchedUsPerChunk = 1e6/(rep.ServicePlaneBatchedJobsPerSec*float64(planeChunks)) -
		rep.ServicePlanePhysicsUsPerChunk
	fmt.Printf("service plane:  %.1f jobs/sec (%d jobs × %d chunks); "+
		"overhead %.1f µs/chunk over %.1f µs physics\n",
		rep.ServicePlaneBatchedJobsPerSec, planeJobs, planeChunks,
		rep.OverheadBatchedUsPerChunk, rep.ServicePlanePhysicsUsPerChunk)

	// Telemetry A/B on the wire-bound workload, where a report's marginal
	// bytes would show if they cost anything. The arms differ ONLY in the
	// worker reports (server options identical — span stamps and event
	// traces run in both, they are not what is being priced), and they
	// interleave over paired rounds with best-of scoring so scheduler and
	// GC drift lands on both arms instead of masquerading as overhead.
	for round := 0; round < 3; round++ {
		on := servicePlaneRate(planeJobs, planeChunks, *workers, batchedClient, defaultOpts)
		off := servicePlaneRate(planeJobs, planeChunks, *workers, quietClient, defaultOpts)
		rep.TelemetryOnJobsPerSec = math.Max(rep.TelemetryOnJobsPerSec, on)
		rep.TelemetryOffJobsPerSec = math.Max(rep.TelemetryOffJobsPerSec, off)
	}
	rep.TelemetryOverheadPct = 100 * (rep.TelemetryOffJobsPerSec - rep.TelemetryOnJobsPerSec) /
		rep.TelemetryOffJobsPerSec
	fmt.Printf("telemetry A/B:  %.1f on vs %.1f off jobs/sec (%.2f%% overhead)\n",
		rep.TelemetryOnJobsPerSec, rep.TelemetryOffJobsPerSec, rep.TelemetryOverheadPct)

	// WAL A/B on the same wire-bound workload: the journal's appends ride
	// every accept, chunk batch, snapshot and finalize, so any real cost
	// shows here. Same interleaved best-of discipline as the telemetry
	// A/B so host drift does not masquerade as journal overhead.
	for round := 0; round < 3; round++ {
		off := servicePlaneRate(planeJobs, planeChunks, *workers, batchedClient, defaultOpts)
		on := walPlaneRate(planeJobs, planeChunks, *workers, batchedClient)
		rep.WALOffJobsPerSec = math.Max(rep.WALOffJobsPerSec, off)
		rep.WALOnJobsPerSec = math.Max(rep.WALOnJobsPerSec, on)
	}
	rep.WALOverheadPct = 100 * (rep.WALOffJobsPerSec - rep.WALOnJobsPerSec) /
		rep.WALOffJobsPerSec
	fmt.Printf("wal A/B:        %.1f off vs %.1f on jobs/sec (%.2f%% overhead)\n",
		rep.WALOffJobsPerSec, rep.WALOnJobsPerSec, rep.WALOverheadPct)

	// Sharded control plane A/B: measured on this host (best-of over
	// interleaved rounds, same discipline as the other A/Bs) and modeled
	// under master-bound parameters where the serial master is the
	// bottleneck sharding removes.
	const shardN = 4
	rep.ShardPlaneShards = shardN
	for round := 0; round < 3; round++ {
		one := shardPlaneRate(planeJobs, planeChunks, 2*shardN, 1, batchedClient)
		n := shardPlaneRate(planeJobs, planeChunks, 2*shardN, shardN, batchedClient)
		rep.ShardPlane1JobsPerSec = math.Max(rep.ShardPlane1JobsPerSec, one)
		rep.ShardPlaneNJobsPerSec = math.Max(rep.ShardPlaneNJobsPerSec, n)
	}
	rep.ShardPlaneMeasuredSpeedup = rep.ShardPlaneNJobsPerSec / rep.ShardPlane1JobsPerSec
	shardModelBench(&rep, shardN)
	fmt.Printf("shard plane:    measured %.1f → %.1f jobs/sec at %d shards (%.2fx on %d cores); "+
		"modeled %.2fs → %.2fs makespan (%.2fx, %d workers, master-bound)\n",
		rep.ShardPlane1JobsPerSec, rep.ShardPlaneNJobsPerSec, shardN,
		rep.ShardPlaneMeasuredSpeedup, rep.NumCPU,
		rep.ShardModel1MakespanSec, rep.ShardModelNMakespanSec,
		rep.ShardModelSpeedup, rep.ShardModelWorkers)

	distributedBench(&rep, *distPhotons, 3)
	fmt.Printf("distributed:    %.0f photons/sec over %d workers vs %.0f local (%.2fx), "+
		"%d merges (%.1f/sec), wire %dB gob → %dB compact per chunk (%.1fx)\n",
		rep.DistributedPhotonsPerSec, rep.DistributedWorkers, rep.LocalPhotonsPerSec,
		rep.DistributedVsLocal, rep.DistributedTallyMerges, rep.DistributedMergesPerSec,
		rep.WireBytesPerChunkGob, rep.WireBytesPerChunkCompact, rep.WireBytesRatio)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// kernelRate runs the config once (plus a small warm-up that also builds
// the geometry accelerators) and returns photons/sec across all cores plus
// heap allocations and bytes per photon during the timed run.
func kernelRate(cfg *mc.Config, photons int64) (rate, allocsPerPhoton, bytesPerPhoton float64) {
	if _, err := mc.RunParallel(cfg, photons/10+1, 1, 0); err != nil {
		fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := mc.RunParallel(cfg, photons, 1, 0); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return float64(photons) / elapsed,
		float64(m1.Mallocs-m0.Mallocs) / float64(photons),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(photons)
}

// client drains a registry over one connection until the service is done.
type client func(rw net.Conn, name string)

// batchedClient is the production worker: v3 batched pre-reduction with
// the compact tally codec, telemetry reports on (the default).
func batchedClient(rw net.Conn, name string) {
	distsys.Work(rw, distsys.WorkerOptions{Name: name})
}

// quietClient is batchedClient with telemetry reporting disabled — the
// "off" arm of the telemetry A/B.
func quietClient(rw net.Conn, name string) {
	distsys.Work(rw, distsys.WorkerOptions{Name: name, DisableTelemetry: true})
}

// registryRate submits many small distinct jobs to one registry, drains
// them over an in-memory pipe fleet, and returns completed jobs/sec. The
// workload is unchanged since PR 2; on a small host it is physics-bound
// (≈13 ms of photon transport per job), so treat it as a whole-system
// number, not a wire number.
func registryRate(jobs, workers int, c client) float64 {
	reg := service.New(service.Options{DrainOnEmpty: true, CacheSize: -1})
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	handles := make([]*service.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := mc.NewSpec(model,
			source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
		out, err := reg.Submit(service.JobSpec{
			Spec:         spec,
			TotalPhotons: 1000,
			ChunkPhotons: 250,
			Seed:         uint64(i + 1), // distinct seeds → distinct jobs
		})
		if err != nil {
			fatal(err)
		}
		handles = append(handles, out.Job)
	}
	return drain(reg, handles, workers, c)
}

// servicePlaneRate is registryRate with photon transport reduced to noise
// (one photon per chunk): jobs/sec here is scheduling, wire codec and
// reduction cost — the plane this PR overhauls — measured per client kind.
func servicePlaneRate(jobs, chunksPerJob, workers int, c client, opts service.Options) float64 {
	reg := service.New(opts)
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	handles := make([]*service.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := mc.NewSpec(model,
			source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
		out, err := reg.Submit(service.JobSpec{
			Spec:         spec,
			TotalPhotons: int64(chunksPerJob),
			ChunkPhotons: 1,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			fatal(err)
		}
		handles = append(handles, out.Job)
	}
	return drain(reg, handles, workers, c)
}

// shardPlaneRate is the service-plane workload split across `shards`
// independent registries, each submission routed by ShardOfKey on its
// content key — exactly how mcgate partitions mcqueues, collapsed into
// one process. totalWorkers divide evenly across the shards (each shard
// keeps at least one), so the 1-shard and N-shard arms drive the same
// fleet size. On a host with fewer free cores than workers the arms
// serialize onto the same silicon and the measured speedup understates;
// see the model arms for the master-bound regime.
func shardPlaneRate(jobs, chunksPerJob, totalWorkers, shards int, c client) float64 {
	regs := make([]*service.Registry, shards)
	for s := range regs {
		regs[s] = service.New(service.Options{DrainOnEmpty: true, CacheSize: -1})
	}
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	handles := make([]*service.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := mc.NewSpec(model,
			source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
		js := service.JobSpec{
			Spec:         spec,
			TotalPhotons: int64(chunksPerJob),
			ChunkPhotons: 1,
			Seed:         uint64(i + 1),
		}
		key, _, err := service.RoutingKeys(&js, 0)
		if err != nil {
			fatal(err)
		}
		out, err := regs[service.ShardOfKey(key, shards)].Submit(js)
		if err != nil {
			fatal(err)
		}
		handles = append(handles, out.Job)
	}
	perShard := totalWorkers / shards
	if perShard < 1 {
		perShard = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for s, reg := range regs {
		for w := 0; w < perShard; w++ {
			server, pipeClient := net.Pipe()
			go reg.HandleConn(server)
			wg.Add(1)
			go func(s, w int) {
				defer wg.Done()
				c(pipeClient, fmt.Sprintf("bench-s%d-%d", s, w))
			}(s, w)
		}
	}
	for _, j := range handles {
		if _, err := j.Wait(5 * time.Minute); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	wg.Wait()
	return float64(len(handles)) / elapsed
}

// shardModelBench runs the cluster package's serial-master simulation in
// the master-bound regime — 64 homogeneous 233 Mflops workers, campus-LAN
// 3 ms serial master service, fixed 100-photon (~30 ms) chunks — once with
// one master over the whole fleet, once sharded 4 ways. One master can
// feed ~10 such workers; 64 queue on it and the makespan degenerates to
// chunks × MasterService, which N masters divide. This is the deployment
// the sharded control plane targets, independent of this host's core count.
func shardModelBench(rep *Report, shards int) {
	fleet := cluster.Homogeneous(64, 233)
	netw := cluster.CampusLAN()
	p := cluster.Params{
		TotalPhotons: 200_000,
		Policy:       sched.FixedChunk{Photons: 100},
		Seed:         7,
	}
	one := cluster.Simulate(fleet, netw, p)
	n := cluster.SimulateSharded(fleet, netw, p, shards)
	rep.ShardModelWorkers = len(fleet)
	rep.ShardModelPhotons = p.TotalPhotons
	rep.ShardModel1MakespanSec = one.Makespan.Seconds()
	rep.ShardModelNMakespanSec = n.Makespan.Seconds()
	rep.ShardModelSpeedup = rep.ShardModel1MakespanSec / rep.ShardModelNMakespanSec
}

// walPlaneRate is the batched service-plane workload with the crash
// journal armed on a throwaway directory: every accept, reduced chunk
// batch, amortized snapshot and finalize is write-ahead logged under the
// production-default "interval" fsync policy. Jobs/sec here against the
// journal-off arm prices crash durability.
func walPlaneRate(jobs, chunksPerJob, workers int, c client) float64 {
	dir, err := os.MkdirTemp("", "mcbench-wal")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	wlog, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval})
	if err != nil {
		fatal(err)
	}
	defer wlog.Close()
	journal := service.NewJournal(wlog, service.JournalOptions{})
	return servicePlaneRate(jobs, chunksPerJob, workers, c,
		service.Options{DrainOnEmpty: true, CacheSize: -1, Journal: journal})
}

// servicePlanePhysics measures the bare compute cost of the service-plane
// workload's chunks — the same per-job runner + stream-cache path a worker
// uses, with no registry, wire or reduction — in µs per chunk.
func servicePlanePhysics(jobs, chunksPerJob int) float64 {
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	spec := mc.NewSpec(model,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	start := time.Now()
	for i := 0; i < jobs; i++ {
		cfg, err := spec.Build()
		if err != nil {
			fatal(err)
		}
		runner, err := mc.NewRunner(cfg)
		if err != nil {
			fatal(err)
		}
		cache := rng.NewStreamCache(uint64(i + 1))
		for s := 0; s < chunksPerJob; s++ {
			runner.Run(1, cache.Stream(s))
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(jobs*chunksPerJob)
}

func drain(reg *service.Registry, handles []*service.Job, workers int, c client) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		server, pipeClient := net.Pipe()
		go reg.HandleConn(server)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c(pipeClient, fmt.Sprintf("bench-%d", w))
		}(w)
	}
	for _, j := range handles {
		if _, err := j.Wait(5 * time.Minute); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	wg.Wait()
	return float64(len(handles)) / elapsed
}

// distributedBench runs one realistic scoring job (adult head, annulus
// detector, 50³ detected-path grid) locally with RunParallel and then over
// a 3-worker in-memory fleet through the full v3 result plane, recording
// the throughput ratio, the reduction counters, and the wire bytes of one
// chunk result under both tally codecs.
func distributedBench(rep *Report, photons int64, workers int) {
	spec := mc.NewSpec(tissue.AdultHead(),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 10, RMax: 30})
	spec.PathGrid = &mc.GridSpec{N: 50, Edge: 60}

	// ~230-photon chunks: the dynamic self-scheduling granularity of the
	// paper's platform, and a chunk tally sparse enough that the wire
	// numbers reflect real per-chunk traffic.
	chunk := int64(230)
	nChunks := (photons + chunk - 1) / chunk
	const seed = 7

	cfg, err := spec.Build()
	if err != nil {
		fatal(err)
	}
	// Warm-up (builds tables) + wire-cost measurement on one real chunk.
	chunkTally, err := mc.RunStream(cfg, chunk, seed, 0, int(nChunks))
	if err != nil {
		fatal(err)
	}
	var gobBytes bytes.Buffer
	if err := gob.NewEncoder(&gobBytes).Encode(chunkTally); err != nil {
		fatal(err)
	}
	compactBytes := mc.AppendTally(nil, chunkTally)
	rep.WireBytesPerChunkGob = gobBytes.Len()
	rep.WireBytesPerChunkCompact = len(compactBytes)
	rep.WireBytesRatio = float64(gobBytes.Len()) / float64(len(compactBytes))

	start := time.Now()
	if _, err := mc.RunParallel(cfg, photons, seed, 0); err != nil {
		fatal(err)
	}
	rep.LocalPhotonsPerSec = float64(photons) / time.Since(start).Seconds()

	reg := service.New(service.Options{DrainOnEmpty: true, CacheSize: -1})
	out, err := reg.Submit(service.JobSpec{
		Spec:         spec,
		TotalPhotons: photons,
		ChunkPhotons: chunk,
		Seed:         seed,
		Fan:          runtime.GOMAXPROCS(0), // one chunk saturates a worker's cores
	})
	if err != nil {
		fatal(err)
	}
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		server, pipeClient := net.Pipe()
		go reg.HandleConn(server)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			distsys.Work(pipeClient, distsys.WorkerOptions{Name: fmt.Sprintf("dist-%d", w)})
		}(w)
	}
	if _, err := out.Job.Wait(10 * time.Minute); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	wg.Wait()

	stats := reg.Stats()
	rep.DistributedWorkers = workers
	rep.DistributedPhotonsPerSec = float64(photons) / elapsed
	rep.DistributedVsLocal = rep.DistributedPhotonsPerSec / rep.LocalPhotonsPerSec
	rep.DistributedBatches = stats.BatchesReduced
	rep.DistributedTallyMerges = stats.TallyMerges
	rep.DistributedMergesPerSec = float64(stats.TallyMerges) / elapsed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcbench:", err)
	os.Exit(1)
}
