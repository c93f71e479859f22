// Command e2ebench is the repository's end-to-end benchmark. It boots the
// real deployment — mcgate over two mcqueue shards, each journaled with
// the production-default interval fsync and fed by one mcworker — drives
// one seeded workload through the gateway's HTTP API, verifies every
// result against a local computation, and prints the metrics as one JSON
// line:
//
//	e2ebench -workload swarm -seed 1 -seconds 15 -trace 0 -bin .bench_build/bin
//
// With -trace 0 it reports the end-to-end metrics from an untraced
// deployment. With -trace 1 it runs the same plan twice — untraced, then
// with per-job event and span rings and worker debug listeners on — and
// reports the per-layer metrics of the traced run, plus the tracing
// overhead between the two. e2ebench/run.sh builds the binaries and runs
// it; README.md lists the workloads, metrics and known defects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the deployment sees, from an
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"photons_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are the per-layer metrics of a traced run, by module.
var layerMetrics = []metricDef{
	{"client.send_lag_p99_ms", "ms"},
	{"client.polls_per_job", "count"},
	{"client.poll_slack_p50_ms", "ms"},
	{"client.cpu_ms_per_job", "ms"},
	{"gateway.cpu_ms_per_job", "ms"},
	{"gateway.rss_mb", "MiB"},
	{"gateway.requests_per_job", "count"},
	{"gateway.cache_hit_frac", "ratio"},
	{"gateway.proxy_ms_p50", "ms"},
	{"service.submit_rtt_ms_p50", "ms"},
	{"service.submit_rtt_ms_p90", "ms"},
	{"service.decode_us", "us"},
	{"canon.key_us", "us"},
	{"mc.spec_build_us", "us"},
	{"service.submit_us", "us"},
	{"service.dispatch_wait_ms_p50", "ms"},
	{"service.queue_ms_per_chunk", "ms"},
	{"service.reassigned_frac", "ratio"},
	{"protocol.bytes_per_chunk", "bytes"},
	{"protocol.frames_per_chunk", "count"},
	{"service.wire_ms_per_chunk", "ms"},
	{"mc.tally_encode_us", "us"},
	{"mc.tally_decode_us", "us"},
	{"distsys.compute_ms_per_chunk", "ms"},
	{"distsys.busy_frac", "ratio"},
	{"distsys.cpu_ms_per_job", "ms"},
	{"mc.kernel_photons_per_s", "1/s"},
	{"rng.stream_us", "us"},
	{"service.reduce_ms_per_chunk", "ms"},
	{"service.seal_ms_p50", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"wal.appends_per_job", "count"},
	{"wal.bytes_per_job", "bytes"},
	{"wal.fsync_ms_per_s", "ms/s"},
	{"trace.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// setupBoots is how many times an untraced run boots the deployment; the
// median is setup_s, and the last boot serves the measured window.
const setupBoots = 9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: physics, swarm or repeat")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	bin := flag.String("bin", ".bench_build/bin", "directory holding mcgate, mcqueue and mcworker")
	state := flag.String("state", ".bench_build/state", "directory for per-run daemon state")
	flag.Parse()

	// The generator uses at most nproc threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopTracked()
		os.Exit(1)
	}()

	res, err := execute(*name, *seed, *seconds, *trace, *bin, *state)
	stopTracked()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func execute(name string, seed uint64, seconds, trace int, bin, state string) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	for _, b := range []string{"mcgate", "mcqueue", "mcworker"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("missing daemon binary: %w", err)
		}
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	p, err := newPlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	loop := fmt.Sprintf("open loop at %g jobs/s", w.rate)
	if w.closed {
		loop = "closed loop, one client"
	}
	fmt.Fprintf(os.Stderr, "workload %s (%s; seed %d, %d s window, trace %d)\n  why: %s\n  predicted no-move: %s\n",
		w.name, loop, seed, seconds, trace, w.why, w.noMove)
	refs := newRefCache()
	o := legOptions{bin: bin, stateRoot: state, boots: setupBoots}
	if trace == 0 {
		l, err := runLeg(p, refs, o)
		if err != nil {
			return nil, err
		}
		describe("untraced", l)
		m, err := endToEndMetrics(l)
		if err != nil {
			return nil, err
		}
		return newResult(m, endToEnd, l), nil
	}
	o.boots = 1
	un, err := runLeg(p, refs, o)
	if err != nil {
		return nil, err
	}
	describe("untraced", un)
	o.traced = true
	tr, err := runLeg(p, refs, o)
	if err != nil {
		return nil, err
	}
	describe("traced", tr)
	m, err := perLayer(tr, un)
	if err != nil {
		return nil, err
	}
	sm, err := standalone(p, tr.recs, state)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		m[k] = v
	}
	return newResult(m, layerMetrics, un, tr), nil
}

func endToEndMetrics(l *leg) (map[string]float64, error) {
	ok := l.verified()
	if len(ok) == 0 {
		return nil, fmt.Errorf("no job completed and verified")
	}
	win := l.windowSeconds()
	photons := 0.0
	for _, r := range ok {
		photons += float64(r.launched)
	}
	cpu, rss := 0.0, 0.0
	for role := range l.cpu1 {
		cpu += l.cpu1[role] - l.cpu0[role]
	}
	for _, v := range l.rss {
		rss += v
	}
	lat := latenciesMS(ok)
	return map[string]float64{
		"setup_s":        median(l.setups),
		"jobs_per_s":     float64(len(ok)) / win,
		"photons_per_s":  photons / win,
		"latency_p50_ms": median(lat),
		"latency_p90_ms": percentile(lat, 0.9),
		"cpu_ms_per_job": cpu / float64(len(ok)),
		"peak_rss_mb":    rss,
	}, nil
}

// newResult keeps exactly the named metrics and totals the legs' jobs. A
// run is correct only if every job it attempted completed and verified.
func newResult(m map[string]float64, defs []metricDef, legs ...*leg) *result {
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for _, l := range legs {
		res.Attempted += len(l.recs)
		res.Failed += l.failed()
	}
	res.Correct = res.Failed == 0
	return res
}

// describe prints a leg's sample sizes, failures and latency tail support
// to stderr, beside the JSON result.
func describe(label string, l *leg) {
	ok := l.verified()
	lat := latenciesMS(ok)
	setups := append([]float64(nil), l.setups...)
	sort.Float64s(setups)
	fmt.Fprintf(os.Stderr, "  %s: %d attempted, %d verified, window %.2f s, setups %v s\n",
		label, len(l.recs), len(ok), l.windowSeconds(), setups)
	fmt.Fprintf(os.Stderr, "    latency ms: p50 %.2f p90 %.2f max %.2f over %d jobs (highest supported percentile p%g)\n",
		median(lat), percentile(lat, 0.9), percentile(lat, 1), len(lat), 100*tailSupport(len(lat)))
	// Latency by quarter of the window shows whether a slow run was slow
	// throughout (the host) or in one stretch.
	var quarters [4][]float64
	for _, r := range ok {
		q := int(4 * r.due.Sub(l.start).Seconds() / l.windowSeconds())
		q = max(0, min(3, q))
		quarters[q] = append(quarters[q], ms(r.latency()))
	}
	fmt.Fprintf(os.Stderr, "    p50 latency by quarter ms: %.2f %.2f %.2f %.2f\n",
		median(quarters[0]), median(quarters[1]), median(quarters[2]), median(quarters[3]))
	fmt.Fprintf(os.Stderr, "    window cpu ms: gateway %.0f, shards %.0f, workers %.0f, generator %.0f\n",
		l.cpu1["gateway"]-l.cpu0["gateway"], l.cpu1["shard"]-l.cpu0["shard"],
		l.cpu1["worker"]-l.cpu0["worker"], l.self1-l.self0)
	var errs []string
	for _, r := range l.recs {
		if r.err != nil && len(errs) < 5 {
			errs = append(errs, r.err.Error())
		}
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "    failures (first %d): %s\n", len(errs), strings.Join(errs, "; "))
	}
}
