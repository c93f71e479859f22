package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child process of the deployment under test.
type daemon struct {
	role string // "gateway", "shard" or "worker"
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	logs chan map[string]any

	mu   sync.Mutex
	tail []string // last lines of stderr, for failure reports
}

// start launches bin with args, decoding its JSON log lines onto d.logs.
func startDaemon(role, name, bin string, args ...string) (*daemon, error) {
	d := &daemon{role: role, name: name, done: make(chan struct{}),
		logs: make(chan map[string]any, 64)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = io.Discard
	// Should the benchmark itself be killed, take the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.tail) == 20 {
				d.tail = d.tail[1:]
			}
			d.tail = append(d.tail, line)
			d.mu.Unlock()
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil {
				select {
				case d.logs <- rec:
				default: // nobody is waiting for a log line any more
				}
			}
		}
		d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitLog returns the first log record whose msg is msg.
func (d *daemon) waitLog(msg string, timeout time.Duration) (map[string]any, error) {
	deadline := time.After(timeout)
	for {
		select {
		case rec := <-d.logs:
			if rec["msg"] == msg {
				return rec, nil
			}
		case <-d.done:
			return nil, fmt.Errorf("%s exited before logging %q: %s", d.name, msg, d.lastLines())
		case <-deadline:
			return nil, fmt.Errorf("%s did not log %q within %v: %s", d.name, msg, timeout, d.lastLines())
		}
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits; a process still alive after the grace
// period is killed. It returns once the process has been reaped.
func (d *daemon) stop(grace time.Duration) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cluster is the deployment under test: mcgate over two journaled
// mcqueue shards, each fed by one mcworker.
type cluster struct {
	gateway *daemon
	shards  [2]*daemon
	workers [2]*daemon

	gatewayURL  string
	shardURL    [2]string
	workerDebug [2]string // empty unless traced
}

func (c *cluster) daemons() []*daemon {
	out := []*daemon{c.gateway}
	for _, d := range c.shards {
		out = append(out, d)
	}
	for _, d := range c.workers {
		out = append(out, d)
	}
	var live []*daemon
	for _, d := range out {
		if d != nil {
			live = append(live, d)
		}
	}
	return live
}

// bootOptions shape one boot of the deployment.
type bootOptions struct {
	bin     string // directory holding mcgate, mcqueue and mcworker
	dir     string // fresh state directory for this boot
	traced  bool
	tenants string // gateway tenant table
}

// boot launches the five daemons and returns once the gateway's /readyz
// answers 200 and each shard's /fleet lists its worker — the setup time
// end-to-end metric. All state (journal, lease, shutdown checkpoints)
// lives under o.dir, so no boot can resume another's jobs.
func boot(o bootOptions) (*cluster, time.Duration, error) {
	c := &cluster{}
	track(c)
	start := time.Now()
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	ringOff := []string{}
	if !o.traced {
		// Untraced: the per-job event and span rings are off; the
		// aggregate histograms on /metrics still run.
		ringOff = []string{"-trace-events", "-1", "-span-events", "-1"}
	}
	for i := range c.shards {
		sd := filepath.Join(o.dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return fail(err)
		}
		args := append([]string{
			"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-wal-dir", filepath.Join(sd, "wal"), "-wal-fsync", "interval",
			"-lease-file", filepath.Join(sd, "lease"),
			"-checkpoint-dir", filepath.Join(sd, "ckpt"),
			"-log-format", "json",
		}, ringOff...)
		d, err := startDaemon("shard", fmt.Sprintf("shard%d", i), filepath.Join(o.bin, "mcqueue"), args...)
		if err != nil {
			return fail(err)
		}
		c.shards[i] = d
	}
	var fleet [2]string
	for i, d := range c.shards {
		rec, err := d.waitLog("mcqueue up", 20*time.Second)
		if err != nil {
			return fail(err)
		}
		fleet[i], _ = rec["fleet"].(string)
		h, _ := rec["http"].(string)
		c.shardURL[i] = "http://" + h
	}
	for i := range c.workers {
		args := []string{"-addr", fleet[i], "-name", fmt.Sprintf("worker%d", i), "-log-format", "json"}
		if o.traced {
			args = append(args, "-debug-addr", "127.0.0.1:0")
		}
		d, err := startDaemon("worker", fmt.Sprintf("worker%d", i), filepath.Join(o.bin, "mcworker"), args...)
		if err != nil {
			return fail(err)
		}
		c.workers[i] = d
	}
	gw, err := startDaemon("gateway", "gateway", filepath.Join(o.bin, "mcgate"),
		"-http", "127.0.0.1:0", "-shard", c.shardURL[0], "-shard", c.shardURL[1],
		"-tenants", o.tenants, "-log-format", "json")
	if err != nil {
		return fail(err)
	}
	c.gateway = gw
	rec, err := gw.waitLog("mcgate up", 20*time.Second)
	if err != nil {
		return fail(err)
	}
	h, _ := rec["http"].(string)
	c.gatewayURL = "http://" + h
	if o.traced {
		for i, d := range c.workers {
			rec, err := d.waitLog("debug listener up", 20*time.Second)
			if err != nil {
				return fail(err)
			}
			a, _ := rec["addr"].(string)
			c.workerDebug[i] = "http://" + a
		}
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	if err := pollUntil(20*time.Second, func() bool {
		resp, err := probe.Get(c.gatewayURL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return fail(fmt.Errorf("gateway never ready: %w", err))
	}
	for i, u := range c.shardURL {
		if err := pollUntil(20*time.Second, func() bool {
			var f struct {
				Workers []json.RawMessage `json:"workers"`
			}
			return getJSON(probe, u+"/fleet", &f) == nil && len(f.Workers) >= 1
		}); err != nil {
			return fail(fmt.Errorf("worker %d never joined shard %d: %w", i, i, err))
		}
	}
	setup := time.Since(start)
	// Run isolation: a fresh state directory means nothing to resume or
	// replay. A nonzero count would mean one run's jobs leaked into this
	// one, and every number after it would be suspect.
	for i, u := range c.shardURL {
		sc, err := scrapeURL(probe, u+"/metrics")
		if err != nil {
			return fail(err)
		}
		for _, m := range []string{"service_jobs_resumed_total", "service_jobs_replayed_total"} {
			if v := sc.sum(m); v != 0 {
				return fail(fmt.Errorf("shard %d booted with %s = %g: state leaked between runs", i, m, v))
			}
		}
	}
	return c, setup, nil
}

// stop terminates every daemon and waits for each; the gateway goes first
// so no request reaches a draining shard.
func (c *cluster) stop() {
	if c.gateway != nil {
		c.gateway.stop(10 * time.Second)
	}
	var wg sync.WaitGroup
	for _, d := range c.daemons() {
		if d == c.gateway {
			continue
		}
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop(10 * time.Second)
		}(d)
	}
	wg.Wait()
	untrack(c)
}

// cpu returns utime+stime in ms per daemon role, summed over replicas.
func (c *cluster) cpu() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range c.daemons() {
		ms, err := cpuMillis(d.pid())
		if err != nil {
			return nil, err
		}
		out[d.role] += ms
	}
	return out, nil
}

// peakRSS returns VmHWM in MiB per daemon role, summed over replicas.
func (c *cluster) peakRSS() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range c.daemons() {
		mb, err := peakRSSMB(d.pid())
		if err != nil {
			return nil, err
		}
		out[d.role] += mb
	}
	return out, nil
}

// scrapeAll reads /metrics from the gateway, both shards and (traced)
// both workers' debug listeners.
func (c *cluster) scrapeAll(hc *http.Client) (scrapes, error) {
	out := scrapes{}
	add := func(role, url string) error {
		sc, err := scrapeURL(hc, url+"/metrics")
		if err != nil {
			return err
		}
		out[role] = append(out[role], sc)
		return nil
	}
	if err := add("gateway", c.gatewayURL); err != nil {
		return nil, err
	}
	for _, u := range c.shardURL {
		if err := add("shard", u); err != nil {
			return nil, err
		}
	}
	for _, u := range c.workerDebug {
		if u == "" {
			continue
		}
		if err := add("worker", u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func scrapeURL(hc *http.Client, url string) (scrape, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

func getJSON(hc *http.Client, url string, into any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// pollUntil calls ok every millisecond until it reports true or timeout passes.
func pollUntil(timeout time.Duration, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// writeTenants writes the gateway's tenant table: token buckets on both
// tenants, with limits far above anything a run offers, so admission runs
// on every submission and never sheds.
func writeTenants(path string) error {
	class := map[string]float64{"jobsPerSec": 100000, "jobBurst": 100000,
		"photonsPerSec": 1e12, "photonBurst": 1e12, "weight": 1}
	table := map[string]any{
		"default": map[string]float64{"weight": 1},
		"tenants": map[string]any{"tenant-a": class, "tenant-b": class},
	}
	b, err := json.Marshal(table)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
