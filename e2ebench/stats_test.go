package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.9, 37}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %g, want 0", got)
	}
}

func TestTailSupportNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := tailSupport(c.n); got != c.want {
			t.Errorf("tailSupport(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestParseStatCPUSkipsCommandWithSpaces(t *testing.T) {
	// pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
	// majflt cmajflt utime stime ...
	line := "4242 (mc gate (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0"
	ms, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 300.0 * 1000 / clockTicks; ms != want {
		t.Errorf("cpu = %g ms, want %g", ms, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("truncated stat line parsed without error")
	}
}
