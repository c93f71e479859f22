package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/mc"
	"repro/internal/service"
)

// weightTol is the relative tolerance on floating-point tally fields. A
// tally is a pure function of (spec, seed, stream, fan), but the service
// merges chunk tallies in batch order rather than stream order, so sums
// may differ in their last bits; counts must match exactly.
const weightTol = 1e-9

// jobSpecOf is the registry's view of a request, exactly as the service
// HTTP layer builds it.
func jobSpecOf(req service.JobRequest) service.JobSpec {
	return service.JobSpec{
		Spec: req.Spec, TotalPhotons: req.Photons, ChunkPhotons: req.ChunkPhotons,
		Seed: req.Seed, Fan: req.Fan, Target: req.Target, ChunkTimeout: req.ChunkTimeout,
		Priority: req.Priority, Weight: req.Weight, Label: req.Label, Tenant: req.Tenant,
	}
}

// normalized returns the request's normalized job spec (defaults filled
// exactly as the service fills them, moments forced on for targeted jobs)
// and its built configuration.
func normalized(req service.JobRequest) (service.JobSpec, *mc.Config, error) {
	js := jobSpecOf(req)
	if _, _, err := service.RoutingKeys(&js, 0); err != nil {
		return js, nil, err
	}
	cfg, err := js.Spec.Build()
	return js, cfg, err
}

// reference computes locally the tally the service must return for req.
// A fixed-count job merges every chunk; a precision-targeted job stops at
// a point the service decides at run time, so its reference merges the
// first launched/chunk streams — the prefix its single worker computed.
// Each chunk is computed as a worker computes it: stream i of the job's
// chunk count (0, open-ended, for a targeted job), fanned as the job asks.
func reference(req service.JobRequest, launched int64) (*mc.Tally, error) {
	js, cfg, err := normalized(req)
	if err != nil {
		return nil, err
	}
	chunk := js.ChunkPhotons
	n, streams := 0, 0
	if js.Target != nil {
		if launched%chunk != 0 {
			return nil, fmt.Errorf("targeted job launched %d photons, not a multiple of its %d-photon chunk", launched, chunk)
		}
		n = int(launched / chunk)
	} else {
		n = int((js.TotalPhotons + chunk - 1) / chunk)
		streams = n
	}
	total := mc.NewTally(cfg)
	for i := 0; i < n; i++ {
		photons := chunk
		if js.Target == nil && i == n-1 {
			photons = js.TotalPhotons - int64(i)*chunk
		}
		t, err := mc.RunStreamFan(cfg, photons, js.Seed, i, streams, js.Fan)
		if err != nil {
			return nil, err
		}
		if err := total.Merge(t); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// refCache memoizes references by (source submission, photons launched):
// a pool entry re-served from cache a hundred times is computed once, and
// distinct references compute in parallel.
type refCache struct {
	mu sync.Mutex
	m  map[refKey]*refEntry
}

type refKey struct {
	src      *jobInput
	launched int64
}

type refEntry struct {
	once  sync.Once
	tally *mc.Tally
	err   error
}

func newRefCache() *refCache { return &refCache{m: map[refKey]*refEntry{}} }

func (c *refCache) get(src *jobInput, launched int64) (*mc.Tally, error) {
	k := refKey{src, launched}
	if src.req.Target == nil {
		k.launched = 0
	}
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		e = &refEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tally, e.err = reference(src.req, launched) })
	return e.tally, e.err
}

// resultTally decodes a GET /jobs/{id}/result body.
func resultTally(body []byte) (*mc.Tally, error) {
	var res service.JobResultBody
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if res.Tally == nil {
		return nil, fmt.Errorf("result has no tally")
	}
	return res.Tally, nil
}

// checkEnergy enforces the kernel's exact energy balance: launched weight
// plus roulette gain minus loss equals every exit and absorption channel.
func checkEnergy(t *mc.Tally) error {
	if t.Launched <= 0 {
		return fmt.Errorf("tally launched %d photons", t.Launched)
	}
	if bal := t.EnergyBalance(); math.Abs(bal) > 1e-6*t.N() {
		return fmt.Errorf("energy balance off by %g over %d photons", bal, t.Launched)
	}
	return nil
}

// compareTally walks two tallies field by field: integers must be equal,
// floats equal within weightTol relative, slices and pointers the same
// shape. The first difference comes back as an error naming its path.
func compareTally(got, want *mc.Tally) error {
	return compareValue("tally", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
}

func compareValue(path string, a, b reflect.Value) error {
	switch a.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d, want %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d, want %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %v, want %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q, want %q", path, a.String(), b.String())
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if x != y && math.Abs(x-y) > weightTol*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Errorf("%s: %.17g, want %.17g", path, x, y)
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf("%s: nil %v, want nil %v", path, a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			return compareValue(path, a.Elem(), b.Elem())
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, want %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := compareValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := path + "." + a.Type().Field(i).Name
			if err := compareValue(name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: cannot compare kind %s", path, a.Kind())
	}
	return nil
}
