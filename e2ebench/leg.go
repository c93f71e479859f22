package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
)

// leg is one boot of the deployment driven through one measured window.
type leg struct {
	traced bool
	setups []float64 // seconds, one per boot

	warm       []*jobRecord
	recs       []*jobRecord
	start, end time.Time

	cpu0, cpu1   map[string]float64 // daemon utime+stime (ms) by role
	self0, self1 float64            // the generator's own
	rss          map[string]float64 // VmHWM (MiB) by role at the end

	// traced only
	before, after scrapes
	events        map[*jobRecord]*jobEvents
	proxyDiffsMS  []float64
}

// legOptions configure one leg.
type legOptions struct {
	bin, stateRoot string
	boots          int // setup measurements; the last boot serves the window
	traced         bool
}

// runLeg boots the deployment (o.boots times, keeping the last), warms the
// plan's pool, drives the measured window, and tears everything down. The
// references are computed and every result verified after teardown,
// outside the timed window.
func runLeg(p *plan, refs *refCache, o legOptions) (*leg, error) {
	l := &leg{traced: o.traced}
	dir, err := os.MkdirTemp(o.stateRoot, p.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tenants := filepath.Join(dir, "tenants.json")
	if err := writeTenants(tenants); err != nil {
		return nil, err
	}
	var c *cluster
	for b := 0; b < o.boots; b++ {
		bootDir := filepath.Join(dir, fmt.Sprintf("boot%d", b))
		cl, setup, err := boot(bootOptions{bin: o.bin, dir: bootDir, traced: o.traced, tenants: tenants})
		if err != nil {
			return nil, err
		}
		l.setups = append(l.setups, setup.Seconds())
		if b < o.boots-1 {
			cl.stop()
			continue
		}
		c = cl
	}
	defer c.stop()
	if err := l.drive(p, c); err != nil {
		return nil, err
	}
	c.stop()
	return l, l.verify(refs)
}

func (l *leg) drive(p *plan, c *cluster) error {
	cl := newClient(c.gatewayURL)
	defer cl.close()
	probe := &http.Client{Timeout: 10 * time.Second}
	// Warm the pool (repeat) so the window sees a steady cache: one run of
	// every pool entry, its result fetched through the gateway, which is
	// what files it into the gateway's tier.
	var wg sync.WaitGroup
	for _, in := range p.warm {
		rec := &jobRecord{in: in, due: time.Now()}
		l.warm = append(l.warm, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(rec)
		}()
	}
	wg.Wait()
	for _, rec := range l.warm {
		if rec.err != nil {
			return fmt.Errorf("warm-up job: %w", rec.err)
		}
	}

	var err error
	if l.traced {
		if l.before, err = c.scrapeAll(probe); err != nil {
			return err
		}
	}
	if l.cpu0, err = c.cpu(); err != nil {
		return err
	}
	if l.self0, err = cpuMillis(os.Getpid()); err != nil {
		return err
	}
	window := time.Duration(p.seconds) * time.Second
	if p.physics != nil {
		l.start = time.Now()
		if l.recs, err = cl.runClosed(l.start, window, p.physics); err != nil {
			return err
		}
	} else {
		l.start = time.Now().Add(20 * time.Millisecond)
		l.recs = cl.runOpen(l.start, p.arrivals)
	}
	for _, r := range l.recs {
		if r.done.After(l.end) {
			l.end = r.done
		}
	}
	if l.cpu1, err = c.cpu(); err != nil {
		return err
	}
	if l.self1, err = cpuMillis(os.Getpid()); err != nil {
		return err
	}
	if l.rss, err = c.peakRSS(); err != nil {
		return err
	}
	if !l.traced {
		return nil
	}
	if l.after, err = c.scrapeAll(probe); err != nil {
		return err
	}
	if err := l.fetchEvents(c, probe); err != nil {
		return err
	}
	return l.sampleProxy(c, cl, probe)
}

// routed reports whether the record's job ran on a shard as a job of its
// own — not answered by a cache or attached to an earlier identical job —
// so its lifecycle events describe this submission.
func (r *jobRecord) routed() bool {
	return r.err == nil && r.id != "" && !r.cached && !r.coalesced
}

func (c *cluster) shardOf(id string) (string, error) {
	n, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		return "", fmt.Errorf("job id %q: %w", id, err)
	}
	return c.shardURL[service.ShardOfID(n, len(c.shardURL))], nil
}

// fetchEvents reads each routed job's lifecycle events straight from its
// shard, after the window, two requests at a time.
func (l *leg) fetchEvents(c *cluster, hc *http.Client) error {
	l.events = map[*jobRecord]*jobEvents{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	todo := make(chan *jobRecord)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range todo {
				ev, err := fetchJobEvents(c, hc, r.id)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					l.events[r] = ev
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range l.recs {
		if r.routed() {
			todo <- r
		}
	}
	close(todo)
	wg.Wait()
	return firstErr
}

// proxySamples is how many routed jobs the gateway-proxy probe times.
const proxySamples = 20

// sampleProxy times GET /jobs/{id}/result through the gateway and straight
// to the owning shard for a sample of routed jobs, alternating which goes
// first; the difference is what the proxy hop adds.
func (l *leg) sampleProxy(c *cluster, cl *client, direct *http.Client) error {
	var routed []*jobRecord
	for _, r := range l.recs {
		if r.routed() {
			routed = append(routed, r)
		}
	}
	sort.Slice(routed, func(a, b int) bool { return routed[a].due.Before(routed[b].due) })
	step := 1
	if len(routed) > proxySamples {
		step = len(routed) / proxySamples
	}
	for i := 0; i < len(routed); i += step {
		r := routed[i]
		shard, err := c.shardOf(r.id)
		if err != nil {
			return err
		}
		viaGW := func() (time.Duration, error) { return timedGet(cl.hc, c.gatewayURL+"/jobs/"+r.id+"/result") }
		viaShard := func() (time.Duration, error) { return timedGet(direct, shard+"/jobs/"+r.id+"/result") }
		var g, s time.Duration
		if i%2 == 0 {
			if g, err = viaGW(); err == nil {
				s, err = viaShard()
			}
		} else {
			if s, err = viaShard(); err == nil {
				g, err = viaGW()
			}
		}
		if err != nil {
			return err
		}
		l.proxyDiffsMS = append(l.proxyDiffsMS, ms(g-s))
	}
	return nil
}

func timedGet(hc *http.Client, url string) (time.Duration, error) {
	t := time.Now()
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return time.Since(t), nil
}

// verify checks every result: energy balance always, and for jobs marked
// for it, every tally field against a local reference of the same (spec,
// seed, stream, fan). A mismatch marks the job failed.
func (l *leg) verify(refs *refCache) error {
	all := append(append([]*jobRecord(nil), l.warm...), l.recs...)
	var wg sync.WaitGroup
	todo := make(chan *jobRecord)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range todo {
				r.err = verifyRecord(r, refs)
			}
		}()
	}
	for _, r := range all {
		if r.err == nil {
			todo <- r
		}
	}
	close(todo)
	wg.Wait()
	for _, r := range l.warm {
		if r.err != nil {
			return fmt.Errorf("warm-up job %s: %w", r.id, r.err)
		}
	}
	return nil
}

func verifyRecord(r *jobRecord, refs *refCache) error {
	t, err := resultTally(r.body)
	if err != nil {
		return err
	}
	r.launched = t.Launched
	r.body = nil // the tally is checked; free the bytes
	if err := checkEnergy(t); err != nil {
		return fmt.Errorf("job %s: %w", r.id, err)
	}
	if !r.in.verify {
		return nil
	}
	ref, err := refs.get(r.in.source, t.Launched)
	if err != nil {
		return fmt.Errorf("job %s reference: %w", r.id, err)
	}
	if err := compareTally(t, ref); err != nil {
		return fmt.Errorf("job %s differs from its local reference: %w", r.id, err)
	}
	return nil
}

// verified returns the window's jobs that completed and passed
// verification.
func (l *leg) verified() []*jobRecord {
	var out []*jobRecord
	for _, r := range l.recs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func (l *leg) failed() int { return len(l.recs) - len(l.verified()) }

func (l *leg) windowSeconds() float64 { return l.end.Sub(l.start).Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracked clusters are stopped if the benchmark is interrupted.
var (
	trackedMu sync.Mutex
	tracked   = map[*cluster]bool{}
)

func track(c *cluster) {
	trackedMu.Lock()
	tracked[c] = true
	trackedMu.Unlock()
}

func untrack(c *cluster) {
	trackedMu.Lock()
	delete(tracked, c)
	trackedMu.Unlock()
}

func stopTracked() {
	trackedMu.Lock()
	var live []*cluster
	for c := range tracked {
		live = append(live, c)
	}
	trackedMu.Unlock()
	for _, c := range live {
		c.stop()
	}
}
