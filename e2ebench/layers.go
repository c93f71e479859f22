package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/wal"
)

// jobEvents is the part of a job's lifecycle trace the attribution uses,
// in the shard's wall clock (the same host clock the client reads).
type jobEvents struct {
	submitted, firstGrant, lastCompleted, finalized time.Time
}

func fetchJobEvents(c *cluster, hc *http.Client, id string) (*jobEvents, error) {
	shard, err := c.shardOf(id)
	if err != nil {
		return nil, err
	}
	var body struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Time time.Time `json:"time"`
			Kind string    `json:"kind"`
		} `json:"events"`
	}
	if err := getJSON(hc, shard+"/jobs/"+id+"/events", &body); err != nil {
		return nil, err
	}
	if body.Dropped > 0 {
		return nil, fmt.Errorf("job %s: event ring dropped %d events", id, body.Dropped)
	}
	ev := &jobEvents{}
	for _, e := range body.Events {
		switch e.Kind {
		case "submitted":
			if ev.submitted.IsZero() {
				ev.submitted = e.Time
			}
		case "chunk-granted":
			if ev.firstGrant.IsZero() {
				ev.firstGrant = e.Time
			}
		case "chunk-completed":
			ev.lastCompleted = e.Time
		case "finalized":
			ev.finalized = e.Time
		}
	}
	if ev.submitted.IsZero() || ev.firstGrant.IsZero() || ev.finalized.IsZero() {
		return nil, fmt.Errorf("job %s: incomplete lifecycle trace (%d events)", id, len(body.Events))
	}
	return ev, nil
}

// parts is one job's latency split into the steps that block its result.
// For a job that ran on a shard the steps are send lag, submit RTT,
// dispatch wait (submitted → first grant), run (first grant → finalized),
// poll slack (finalized → the successful poll was sent) and result fetch
// (that poll's RTT). A job answered by a cache has no shard lifecycle: its
// wait between the submit answer and the successful poll counts as poll
// slack.
type parts struct {
	latency, sendLag, submitRTT, dispatch, run, slack, fetch time.Duration
}

func (p parts) sum() time.Duration {
	return p.sendLag + p.submitRTT + p.dispatch + p.run + p.slack + p.fetch
}

func partsOf(r *jobRecord, ev *jobEvents) parts {
	p := parts{
		latency:   r.latency(),
		sendLag:   r.sent.Sub(r.due),
		submitRTT: r.acked.Sub(r.sent),
		fetch:     r.done.Sub(r.lastPoll),
	}
	if ev == nil {
		p.slack = r.lastPoll.Sub(r.acked)
		return p
	}
	p.dispatch = ev.firstGrant.Sub(ev.submitted)
	p.run = ev.finalized.Sub(ev.firstGrant)
	p.slack = r.lastPoll.Sub(ev.finalized)
	return p
}

// residualFrac is Σ(latency − Σ steps) / Σ latency over the jobs: the
// share of the end-to-end time the steps do not account for. The steps
// overlap where the submit RTT brackets the shard's submitted event, so
// the residual can be slightly negative; the metric reports its
// magnitude.
func residualFrac(ps []parts) float64 {
	var lat, res time.Duration
	for _, p := range ps {
		lat += p.latency
		res += p.latency - p.sum()
	}
	if lat == 0 {
		return 0
	}
	return float64(res) / float64(lat)
}

// perLayer computes the per-layer metrics from a traced leg, with the
// untraced leg of the same plan as the overhead baseline.
func perLayer(tr, un *leg) (map[string]float64, error) {
	m := map[string]float64{}
	ok := tr.verified()
	jobs := float64(len(ok))
	if jobs == 0 {
		return nil, fmt.Errorf("traced leg verified no jobs")
	}
	win := tr.windowSeconds()
	var lag, rtt, polls, slackMS, dispatchMS, sealMS []float64
	var ps []parts
	for _, r := range ok {
		lag = append(lag, ms(r.sent.Sub(r.due)))
		rtt = append(rtt, ms(r.acked.Sub(r.sent)))
		polls = append(polls, float64(r.polls))
		ev := tr.events[r]
		ps = append(ps, partsOf(r, ev))
		if ev == nil {
			continue
		}
		slackMS = append(slackMS, ms(r.done.Sub(ev.finalized)))
		dispatchMS = append(dispatchMS, ms(ev.firstGrant.Sub(ev.submitted)))
		sealMS = append(sealMS, ms(ev.finalized.Sub(ev.lastCompleted)))
	}
	d := func(role, name string, match ...string) float64 {
		return delta(tr.before, tr.after, role, name, match...)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perChunkMS := func(hist string) float64 {
		return 1000 * ratio(d("shard", hist+"_sum"), d("shard", hist+"_count"))
	}

	m["client.send_lag_p99_ms"] = percentile(lag, 0.99)
	m["client.polls_per_job"] = mean(polls)
	m["client.poll_slack_p50_ms"] = median(slackMS)
	m["client.cpu_ms_per_job"] = (tr.self1 - tr.self0) / jobs

	m["gateway.cpu_ms_per_job"] = (tr.cpu1["gateway"] - tr.cpu0["gateway"]) / jobs
	m["gateway.rss_mb"] = tr.rss["gateway"]
	gwReqs := 0.0
	for _, n := range []string{"gateway_submissions_total", "gateway_cache_hits_total",
		"gateway_proxies_total", "gateway_sheds_total", "gateway_invalid_total"} {
		gwReqs += d("gateway", n)
	}
	m["gateway.requests_per_job"] = gwReqs / jobs
	m["gateway.cache_hit_frac"] = ratio(d("gateway", "gateway_cache_hits_total"), float64(len(tr.recs)))
	m["gateway.proxy_ms_p50"] = median(tr.proxyDiffsMS)

	m["service.submit_rtt_ms_p50"] = median(rtt)
	m["service.submit_rtt_ms_p90"] = percentile(rtt, 0.9)

	m["service.dispatch_wait_ms_p50"] = median(dispatchMS)
	m["service.queue_ms_per_chunk"] = perChunkMS("service_span_queue_seconds")
	m["service.reassigned_frac"] = ratio(d("shard", "service_chunks_reassigned_total"),
		d("shard", "service_chunks_granted_total"))

	chunks := d("worker", "worker_chunks_computed_total")
	m["protocol.bytes_per_chunk"] = ratio(d("worker", "worker_conn_bytes_total"), chunks)
	m["protocol.frames_per_chunk"] = ratio(d("worker", "worker_conn_frames_total"), chunks)
	m["service.wire_ms_per_chunk"] = perChunkMS("service_span_wire_seconds")

	busy := d("worker", "worker_chunk_seconds_sum")
	m["distsys.compute_ms_per_chunk"] = 1000 * ratio(busy, d("worker", "worker_chunk_seconds_count"))
	m["distsys.busy_frac"] = ratio(busy, win*float64(len(tr.after["worker"])))
	m["distsys.cpu_ms_per_job"] = (tr.cpu1["worker"] - tr.cpu0["worker"]) / jobs

	m["service.reduce_ms_per_chunk"] = perChunkMS("service_span_reduce_seconds")
	m["service.seal_ms_p50"] = median(sealMS)
	m["service.cache_hit_frac"] = ratio(d("shard", "service_cache_hits_total"),
		d("gateway", "gateway_submissions_total"))

	m["wal.appends_per_job"] = d("shard", "wal_appends_total") / jobs
	m["wal.bytes_per_job"] = d("shard", "wal_bytes_total") / jobs
	m["wal.fsync_ms_per_s"] = 1000 * d("shard", "wal_fsync_seconds_sum") / win

	res := residualFrac(ps)
	describeParts(ps, res)
	m["trace.residual_frac"] = math.Abs(res)
	unP50 := median(latenciesMS(un.verified()))
	m["trace.overhead_frac"] = ratio(median(latenciesMS(ok))-unP50, unP50)
	return m, nil
}

// describeParts prints the mean of each latency step to stderr, so the
// attribution can be read beside the JSON result.
func describeParts(ps []parts, residual float64) {
	var sum parts
	for _, p := range ps {
		sum.latency += p.latency
		sum.sendLag += p.sendLag
		sum.submitRTT += p.submitRTT
		sum.dispatch += p.dispatch
		sum.run += p.run
		sum.slack += p.slack
		sum.fetch += p.fetch
	}
	n := time.Duration(max(1, len(ps)))
	fmt.Fprintf(os.Stderr, "    mean latency %.2f ms = send lag %.2f + submit RTT %.2f + dispatch wait %.2f"+
		" + grant→finalized %.2f + poll slack %.2f + result fetch %.2f; residual %+.2f%%\n",
		ms(sum.latency/n), ms(sum.sendLag/n), ms(sum.submitRTT/n), ms(sum.dispatch/n),
		ms(sum.run/n), ms(sum.slack/n), ms(sum.fetch/n), 100*residual)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func latenciesMS(recs []*jobRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency())
	}
	return out
}

// Standalone layer timings: in-process calls into each layer's public
// functions on the workload's own inputs, timed one call at a time and
// reported as the median per call. They run after the deployment is
// stopped, so nothing else competes for the CPU.

// timeEach calls f(i) for i cycling over n inputs until at least minOps
// calls and minTime have passed, and returns the median call time in µs.
func timeEach(n int, f func(i int) error) (float64, error) {
	const minOps, minTime = 200, 200 * time.Millisecond
	var us []float64
	start := time.Now()
	for k := 0; k < minOps || time.Since(start) < minTime; k++ {
		t := time.Now()
		if err := f(k % n); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}

// distinctInputs returns the plan's submissions with duplicate bodies
// removed (the closed loop contributes the jobs the traced leg sent).
func distinctInputs(p *plan, recs []*jobRecord) []*jobInput {
	seen := map[string]bool{}
	var out []*jobInput
	add := func(in *jobInput) {
		if !seen[string(in.body)] {
			seen[string(in.body)] = true
			out = append(out, in)
		}
	}
	for _, in := range p.inputs() {
		add(in)
	}
	for _, r := range recs {
		add(r.in)
	}
	return out
}

func standalone(p *plan, recs []*jobRecord, stateRoot string) (map[string]float64, error) {
	ins := distinctInputs(p, recs)
	if len(ins) == 0 {
		return nil, fmt.Errorf("no inputs to time")
	}
	m := map[string]float64{}
	var err error
	if m["service.decode_us"], err = timeEach(len(ins), func(i int) error {
		dec := json.NewDecoder(bytes.NewReader(ins[i].body))
		dec.DisallowUnknownFields()
		var req service.JobRequest
		return dec.Decode(&req)
	}); err != nil {
		return nil, err
	}
	// RoutingKeys normalizes in place, so each call gets a fresh copy; the
	// copy is a struct assignment, small beside the canonical encoding.
	specs := make([]service.JobSpec, len(ins))
	for i, in := range ins {
		specs[i] = jobSpecOf(in.req)
		specs[i].Tenant = in.tenant
	}
	if m["canon.key_us"], err = timeEach(len(ins), func(i int) error {
		js := specs[i]
		_, _, err := service.RoutingKeys(&js, 0)
		return err
	}); err != nil {
		return nil, err
	}
	norm := make([]*mc.Spec, len(ins))
	for i := range ins {
		js := specs[i]
		if _, _, err := service.RoutingKeys(&js, 0); err != nil {
			return nil, err
		}
		norm[i] = js.Spec
	}
	if m["mc.spec_build_us"], err = timeEach(len(ins), func(i int) error {
		_, err := norm[i].Build()
		return err
	}); err != nil {
		return nil, err
	}
	if m["service.submit_us"], err = timeSubmit(specs, stateRoot); err != nil {
		return nil, err
	}
	if err := timeCodec(ins, m); err != nil {
		return nil, err
	}
	if m["mc.kernel_photons_per_s"], err = kernelRate(); err != nil {
		return nil, err
	}
	m["rng.stream_us"] = streamTime(specs)
	return m, nil
}

// timeSubmit times Registry.Submit of each distinct submission into a
// fresh registry journaled like a shard (interval fsync) with no workers,
// so each call is ingress alone: normalize, key, build, admit, journal.
func timeSubmit(specs []service.JobSpec, stateRoot string) (float64, error) {
	dir, err := os.MkdirTemp(stateRoot, "submit-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wlog, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval})
	if err != nil {
		return 0, err
	}
	journal := service.NewJournal(wlog, service.JournalOptions{})
	defer journal.Close()
	policy, _ := service.PolicyByName("fair")
	reg := service.New(service.Options{Policy: policy, Journal: journal})
	var us []float64
	for _, js := range specs {
		t := time.Now()
		if _, err := reg.Submit(js); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}

// timeCodec times the compact wire codec on chunk tallies of the
// workload's own jobs: the frames a worker sends.
func timeCodec(ins []*jobInput, m map[string]float64) error {
	const maxTallies = 4
	var tallies []*mc.Tally
	for _, in := range ins {
		if len(tallies) == maxTallies {
			break
		}
		js, cfg, err := normalized(in.req)
		if err != nil {
			return err
		}
		streams := 0
		if js.Target == nil {
			streams = int((js.TotalPhotons + js.ChunkPhotons - 1) / js.ChunkPhotons)
		}
		t, err := mc.RunStreamFan(cfg, js.ChunkPhotons, js.Seed, 0, streams, js.Fan)
		if err != nil {
			return err
		}
		tallies = append(tallies, t)
	}
	encoded := make([][]byte, len(tallies))
	for i, t := range tallies {
		encoded[i] = mc.AppendTally(nil, t)
	}
	var buf []byte
	var err error
	if m["mc.tally_encode_us"], err = timeEach(len(tallies), func(i int) error {
		buf = mc.AppendTally(buf[:0], tallies[i])
		return nil
	}); err != nil {
		return err
	}
	m["mc.tally_decode_us"], err = timeEach(len(tallies), func(i int) error {
		_, err := mc.DecodeTally(encoded[i])
		return err
	})
	return err
}

// kernelRate is single-core photons per second of mc.RunStreamFan on the
// physics workload's spec — the kernel's own speed, and the host's
// calibration: divide physics photons_per_s by it to compare hosts.
func kernelRate() (float64, error) {
	const photons, reps = 2000, 3
	cfg, err := physicsSpec().Build()
	if err != nil {
		return 0, err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var rates []float64
	for k := 0; k < reps; k++ {
		t := time.Now()
		if _, err := mc.RunStreamFan(cfg, photons, uint64(k+1), 0, 1, runtime.NumCPU()); err != nil {
			return 0, err
		}
		rates = append(rates, photons/time.Since(t).Seconds())
	}
	return median(rates), nil
}

// streamTime is the mean µs per first-touch StreamCache.Stream(i) over
// each job's stream indices, a fresh cache per job as a worker builds one.
func streamTime(specs []service.JobSpec) float64 {
	var total time.Duration
	var n int
	for _, js := range specs {
		streams := service.DefaultMinTargetChunks
		if js.Target == nil && js.ChunkPhotons > 0 {
			streams = int((js.TotalPhotons + js.ChunkPhotons - 1) / js.ChunkPhotons)
		}
		c := rng.NewStreamCache(js.Seed)
		t := time.Now()
		for i := 0; i < streams; i++ {
			c.Stream(i)
		}
		total += time.Since(t)
		n += streams
	}
	return float64(total) / float64(time.Microsecond) / float64(n)
}
