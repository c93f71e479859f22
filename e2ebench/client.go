package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// Completion polling. The API has no completion wait, so the client polls
// GET /jobs/{id}/result on a fixed schedule: polls pollMin apart at first,
// then each pollRho of the elapsed time later. The detection error is
// therefore at most max(pollMin, pollRho × elapsed): 5 ms on a 60 ms
// swarm job, 2% on a second-long physics job. The schedule costs about six
// polls per swarm job, and a shared token bucket caps the client's
// total poll rate at pollCap per second so a backlog can never turn the
// poller into the load (polling every job every 2 ms at 800 jobs/s left
// the gateway saturated and the workers idle).
const (
	pollMin    = 5 * time.Millisecond
	pollRho    = 0.02
	pollCap    = 500 // polls per second
	pollBurst  = 20
	jobTimeout = 60 * time.Second
	// maxConns is the generator's connection budget to the gateway.
	maxConns = 2
)

// jobRecord is one submission's timeline as the client saw it.
type jobRecord struct {
	in        *jobInput
	due       time.Time // when the job was due to be sent (closed loop: = sent)
	sent      time.Time // POST /jobs written
	acked     time.Time // POST /jobs answered
	lastPoll  time.Time // the poll that returned 200 was sent
	done      time.Time // the result body is in hand
	id        string
	cached    bool
	coalesced bool
	polls     int
	body      []byte
	err       error // transport, status, timeout or verification failure
	launched  int64
}

func (r *jobRecord) latency() time.Duration { return r.done.Sub(r.due) }

// tokenBucket paces polls: at most rate per second after a burst.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// wait blocks until a token is available and takes it.
func (b *tokenBucket) wait() {
	b.mu.Lock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens--
	var sleep time.Duration
	if b.tokens < 0 {
		sleep = time.Duration(-b.tokens / b.rate * float64(time.Second))
	}
	b.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

// nextPoll returns the offset (from the send time) of the poll after one
// at offset prev.
func nextPoll(prev time.Duration) time.Duration {
	next := time.Duration(float64(prev) * (1 + pollRho))
	if next < prev+pollMin {
		next = prev + pollMin
	}
	return next
}

// client is the load generator's HTTP side.
type client struct {
	hc    *http.Client
	base  string
	polls *tokenBucket
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
		DisableCompression: true}
	return &client{
		hc:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:  base,
		polls: newTokenBucket(pollCap, pollBurst),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run submits one job and polls it to completion, filling rec.
func (c *client) run(rec *jobRecord) {
	rec.err = c.submitAndWait(rec)
}

func (c *client) submitAndWait(rec *jobRecord) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(rec.in.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TenantHeader, rec.in.tenant)
	rec.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.acked = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var acc service.JobAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.id, rec.cached, rec.coalesced = acc.ID, acc.Cached, acc.Coalesced

	deadline := rec.due.Add(jobTimeout)
	off := time.Duration(0)
	if acc.State != service.StateDone.String() {
		off = pollMin
	}
	for {
		if wait := time.Until(rec.sent.Add(off)); wait > 0 {
			time.Sleep(wait)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s not done after %v", rec.id, jobTimeout)
		}
		c.polls.wait()
		rec.lastPoll = time.Now()
		rec.polls++
		resp, err := c.hc.Get(c.base + "/jobs/" + rec.id + "/result")
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			rec.done = time.Now()
			rec.body = b
			return nil
		case http.StatusAccepted:
			off = nextPoll(off)
		default:
			return fmt.Errorf("poll: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
	}
}

// runOpen drives an open loop: every arrival is sent at its due time
// whether or not earlier jobs have finished.
func (c *client) runOpen(start time.Time, arrivals []arrival) []*jobRecord {
	recs := make([]*jobRecord, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		rec := &jobRecord{in: a.in, due: start.Add(a.due)}
		recs[i] = rec
		if wait := time.Until(rec.due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(rec)
		}()
	}
	wg.Wait()
	return recs
}

// runClosed drives a closed loop with one client: the next job is sent
// when the previous result is in hand, until window has passed and the
// job picked for full verification has run.
func (c *client) runClosed(start time.Time, window time.Duration, gen *physicsGen) ([]*jobRecord, error) {
	var recs []*jobRecord
	for i := 0; i <= gen.sample || time.Since(start) < window; i++ {
		in, err := gen.job(i)
		if err != nil {
			return nil, err
		}
		rec := &jobRecord{in: in, due: time.Now()}
		c.run(rec)
		recs = append(recs, rec)
	}
	return recs, nil
}
