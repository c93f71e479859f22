package main

import (
	"math"
	"testing"
	"time"
)

func TestPartsTelescopeToLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	r := &jobRecord{
		due: at(0), sent: at(1), acked: at(4), lastPoll: at(90), done: at(93),
	}
	// The shard records submitted inside the submit RTT (at 3 ms, the
	// response leaves at 4): that 1 ms is counted twice, once in the RTT
	// and once in the dispatch wait.
	ev := &jobEvents{submitted: at(3), firstGrant: at(40), lastCompleted: at(85), finalized: at(86)}
	p := partsOf(r, ev)
	want := parts{
		latency: 93 * time.Millisecond, sendLag: 1 * time.Millisecond, submitRTT: 3 * time.Millisecond,
		dispatch: 37 * time.Millisecond, run: 46 * time.Millisecond,
		slack: 4 * time.Millisecond, fetch: 3 * time.Millisecond,
	}
	if p != want {
		t.Fatalf("parts = %+v, want %+v", p, want)
	}
	if got := p.latency - p.sum(); got != -time.Millisecond {
		t.Errorf("residual = %v, want -1ms (the submitted event inside the RTT)", got)
	}

	// A cache hit has no lifecycle: the wait after the submit answer is
	// poll slack, and the steps sum to the latency exactly.
	hit := &jobRecord{due: at(0), sent: at(0.5), acked: at(2), lastPoll: at(2.1), done: at(9)}
	hp := partsOf(hit, nil)
	if hp.sum() != hp.latency {
		t.Errorf("hit steps sum to %v, latency %v", hp.sum(), hp.latency)
	}

	frac := residualFrac([]parts{p, hp})
	if want := -1.0 / (93 + 9); math.Abs(frac-want) > 1e-12 {
		t.Errorf("residualFrac = %g, want %g", frac, want)
	}
	if residualFrac(nil) != 0 {
		t.Error("residualFrac of no jobs is not 0")
	}
}

func TestResidualIsTheUnexplainedShare(t *testing.T) {
	// 100 ms of latency of which the steps explain 92: residual 8%.
	p := parts{latency: 100 * time.Millisecond, sendLag: 2 * time.Millisecond,
		submitRTT: 5 * time.Millisecond, dispatch: 30 * time.Millisecond,
		run: 50 * time.Millisecond, slack: 3 * time.Millisecond, fetch: 2 * time.Millisecond}
	if got := residualFrac([]parts{p}); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("residualFrac = %g, want 0.08", got)
	}
}
