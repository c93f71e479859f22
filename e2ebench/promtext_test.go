package main

import (
	"strings"
	"testing"
)

const sampleExposition = `# HELP worker_conn_bytes_total Protocol bytes by direction and message type.
# TYPE worker_conn_bytes_total counter
worker_conn_bytes_total{dir="send",type="task-request"} 1200
worker_conn_bytes_total{dir="recv",type="task-assign"} 800

# TYPE service_span_wire_seconds histogram
service_span_wire_seconds_bucket{le="0.005"} 3
service_span_wire_seconds_bucket{le="+Inf"} 4
service_span_wire_seconds_sum 0.0125
service_span_wire_seconds_count 4
gateway_cache_hits_total{index="exact"} 7
gateway_cache_hits_total{index="physics"} 2
odd_label_total{path="a\"b\\c",k="v"} 1 1700000000000
wal_appends_total 42
`

func TestParsePromSumsAndFilters(t *testing.T) {
	sc, err := parseProm(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		match []string
		want  float64
	}{
		{"worker_conn_bytes_total", nil, 2000},
		{"worker_conn_bytes_total", []string{"dir", "send"}, 1200},
		{"service_span_wire_seconds_sum", nil, 0.0125},
		{"service_span_wire_seconds_count", nil, 4},
		{"service_span_wire_seconds_bucket", []string{"le", "+Inf"}, 4},
		{"gateway_cache_hits_total", nil, 9},
		{"gateway_cache_hits_total", []string{"index", "physics"}, 2},
		{"odd_label_total", []string{"path", `a"b\c`}, 1},
		{"wal_appends_total", nil, 42},
		{"absent_total", nil, 0},
	}
	for _, c := range cases {
		if got := sc.sum(c.name, c.match...); got != c.want {
			t.Errorf("sum(%s %v) = %g, want %g", c.name, c.match, got, c.want)
		}
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value",
		`metric{k="v" 1`,
		`metric{k=v} 1`,
		"metric notanumber",
		"metric 1 2 3",
	} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestDeltaAcrossReplicas(t *testing.T) {
	mk := func(text string) scrape {
		sc, err := parseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	before := scrapes{"shard": {mk("wal_appends_total 10\n"), mk("wal_appends_total 5\n")}}
	after := scrapes{"shard": {mk("wal_appends_total 25\n"), mk("wal_appends_total 9\n")}}
	if got := delta(before, after, "shard", "wal_appends_total"); got != 19 {
		t.Errorf("delta = %g, want 19", got)
	}
}
