package service

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/canon"
	"repro/internal/mc"
)

// Key content-addresses a job result: the SHA-256 of the canonical
// encoding (internal/canon) of (Spec, TotalPhotons, ChunkPhotons, Seed).
// Those four fields are exactly what the reproducibility contract says a
// result depends on — the spec fixes the physics, the photon totals fix
// the chunking (and with it the RNG stream count), and the seed fixes
// the streams — so two submissions with equal keys produce bit-identical
// tallies and the second can be served from cache.
//
// canon, not gob: gob grants wire type IDs from a process-global
// first-encode-wins counter, so the byte stream for identical values
// depends on what else the process gob-encoded earlier (a worker
// connection's protocol traffic was enough to shift every subsequent
// key, which broke journal replay's job-ID stability). canon has no
// global state, so equal specs hash equally in every process.
type Key [sha256.Size]byte

// String renders the key as hex for logs and the HTTP API.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// KeyOf computes the content address of a job.
func KeyOf(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64) (Key, error) {
	return KeyOfFan(spec, totalPhotons, chunkPhotons, seed, 0)
}

// KeyOfFan is KeyOf for fanned jobs: a fan width > 1 changes every chunk
// tally (the chunk decomposes into fan sub-streams), so it must be part of
// the content address. The fan is appended to the hash input only when it
// is > 1, which keeps the key *format* — and with it every existing cache
// entry and restart-stable job ID of legacy single-stream jobs — untouched.
func KeyOfFan(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64, fan int) (Key, error) {
	return keyOf(spec, totalPhotons, chunkPhotons, seed, fan, nil)
}

// KeyOfTarget is the content address of a precision-targeted job: the
// fixed-count tuple (with TotalPhotons zero — the count is open-ended)
// extended by the normalized Target, appended the same trailing way the
// fan is so every fixed-count key is untouched.
func KeyOfTarget(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (Key, error) {
	return keyOf(spec, 0, chunkPhotons, seed, fan, tgt)
}

func keyOf(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (Key, error) {
	h := sha256.New()
	canonical := struct {
		Spec         *mc.Spec
		TotalPhotons int64
		ChunkPhotons int64
		Seed         uint64
	}{spec, totalPhotons, chunkPhotons, seed}
	if err := canon.Write(h, &canonical); err != nil {
		return Key{}, fmt.Errorf("service: cache key: %w", err)
	}
	if fan > 1 {
		if err := canon.Write(h, fan); err != nil {
			return Key{}, fmt.Errorf("service: cache key: %w", err)
		}
	}
	if tgt != nil {
		if err := canon.Write(h, tgt); err != nil {
			return Key{}, fmt.Errorf("service: cache key: %w", err)
		}
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// PhysicsKeyOf addresses what a tally *is* rather than how much of it was
// asked for: the (Spec, ChunkPhotons, Seed, Fan) tuple that fixes the
// physics, the chunk decomposition and the RNG streams — everything but
// the stopping point. Every moments-tracking result is indexed under its
// physics key so a precision-targeted request can be served by any stored
// run of the same decomposition that meets-or-exceeds it (more photons,
// tighter RSE), whether that run was itself targeted or fixed-count.
func PhysicsKeyOf(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int) (Key, error) {
	h := sha256.New()
	canonical := struct {
		Physics      string // domain separator vs the job-key tuple
		Spec         *mc.Spec
		ChunkPhotons int64
		Seed         uint64
		Fan          int
	}{"physics", spec, chunkPhotons, seed, fan}
	if err := canon.Write(h, &canonical); err != nil {
		return Key{}, fmt.Errorf("service: physics key: %w", err)
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// Cache is the content-addressed result cache, used by a shard's
// Registry and by the gateway's shared tier alike. Every completed run is
// one entry, indexed twice: exactly, under its full content key, and by
// physics key, where a precision-targeted lookup accepts any stored run
// of the same decomposition that meets-or-exceeds its target. Entries
// leave in insertion (FIFO) order once the bound is reached.
//
// Entries are immutable: Put stores the caller's tally itself and lookups
// hand out that pointer, so neither side may merge into it afterwards.
// A nil *Cache is a valid, disabled cache.
type Cache struct {
	mu      sync.Mutex
	max     int
	exact   map[Key]*cacheEntry
	physics map[Key][]*cacheEntry // every stored run of one physics key
	order   []Key                 // exact keys in insertion order
	hits    int64
	misses  int64
}

type cacheEntry struct {
	key, pkey Key
	tally     *mc.Tally
}

// NewCache returns a cache bounded to size entries: 0 means 256, and a
// negative size disables caching (nil).
func NewCache(size int) *Cache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = 256
	}
	return &Cache{
		max:     size,
		exact:   make(map[Key]*cacheEntry),
		physics: make(map[Key][]*cacheEntry),
	}
}

// Lookup probes the exact index under key and, when that misses and tgt
// is set, the physics index under pkey for a stored run satisfying tgt
// (photon floor reached, RSE at or below the requested relative error).
// A request is never penalised for a stored run having spent more photons
// than its own cap: the extra precision is free. index names the index
// that hit ("exact" or "physics"); one Lookup counts one hit or one miss.
// The returned tally is shared and read-only.
func (c *Cache) Lookup(key, pkey Key, tgt *mc.Target) (t *mc.Tally, index string) {
	if c == nil {
		return nil, ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.exact[key]; e != nil {
		c.hits++
		return e.tally, "exact"
	}
	if tgt != nil {
		for _, e := range c.physics[pkey] {
			if tgt.MetBy(e.tally) {
				c.hits++
				return e.tally, "physics"
			}
		}
	}
	c.misses++
	return nil, ""
}

// Put stores a completed run's tally under its content and physics keys.
// The cache keeps t itself, so the caller must not mutate it afterwards.
// The deepest run wins an exact-key collision.
func (c *Cache) Put(key, pkey Key, t *mc.Tally) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{key: key, pkey: pkey, tally: t}
	if old := c.exact[key]; old != nil {
		if old.tally.Launched >= t.Launched {
			return
		}
		c.exact[key] = e
		for i, g := range c.physics[old.pkey] {
			if g == old {
				c.physics[old.pkey][i] = e
				break
			}
		}
		return
	}
	for len(c.order) >= c.max {
		c.evictLocked()
	}
	c.exact[key] = e
	c.physics[pkey] = append(c.physics[pkey], e)
	c.order = append(c.order, key)
}

func (c *Cache) evictLocked() {
	e := c.exact[c.order[0]]
	c.order = c.order[1:]
	delete(c.exact, e.key)
	group := c.physics[e.pkey]
	for i, g := range group {
		if g == e {
			group = append(group[:i], group[i+1:]...)
			break
		}
	}
	if len(group) == 0 {
		delete(c.physics, e.pkey)
	} else {
		c.physics[e.pkey] = group
	}
}

// Stats snapshots the entry count and the hit/miss counters.
func (c *Cache) Stats() (entries int, hits, misses int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.exact), c.hits, c.misses
}
