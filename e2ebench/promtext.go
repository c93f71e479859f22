package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one parsed sample line of the Prometheus text exposition
// format: a metric name, its labels and its value.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one /metrics response, parsed.
type scrape []series

// parseProm parses the Prometheus text exposition format the daemons
// serve on /metrics. Comment and blank lines are skipped; a malformed
// sample line is an error, so a format change fails loudly instead of
// reading as zero.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d %q: %w", ln, line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (series, error) {
	s := series{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unclosed label set")
		}
		if err := parseLabels(line[i+1:j], s.labels); err != nil {
			return s, err
		}
		rest = line[j+1:]
	} else {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return s, fmt.Errorf("no value")
		}
		s.name, rest = line[:sp], line[sp:]
	}
	fields := strings.Fields(rest)
	if s.name == "" || len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("want `name[{labels}] value [timestamp]`")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"` with the exposition format's
// backslash escapes (\\, \" and \n) inside values.
func parseLabels(text string, into map[string]string) error {
	for text = strings.TrimSpace(text); text != ""; {
		eq := strings.IndexByte(text, '=')
		if eq <= 0 || eq+1 >= len(text) || text[eq+1] != '"' {
			return fmt.Errorf("bad label in %q", text)
		}
		key := strings.TrimSpace(text[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(text) && text[i] != '"'; i++ {
			if text[i] == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[i])
				}
				continue
			}
			val.WriteByte(text[i])
		}
		if i >= len(text) {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		into[key] = val.String()
		text = strings.TrimPrefix(strings.TrimSpace(text[i+1:]), ",")
		text = strings.TrimSpace(text)
	}
	return nil
}

// sum adds the values of every series named name whose labels include
// all of the given key/value pairs (given as alternating strings).
func (sc scrape) sum(name string, match ...string) float64 {
	total := 0.0
	for _, s := range sc {
		if s.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// scrapes holds one /metrics scrape per daemon role, so deltas across a
// measured window can be summed over the replicas of a layer.
type scrapes map[string][]scrape

// delta sums name (filtered as in scrape.sum) over every scrape of role
// in after, minus the same in before.
func delta(before, after scrapes, role, name string, match ...string) float64 {
	total := 0.0
	for _, sc := range after[role] {
		total += sc.sum(name, match...)
	}
	for _, sc := range before[role] {
		total -= sc.sum(name, match...)
	}
	return total
}
