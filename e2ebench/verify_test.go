package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/service"
)

func TestReferenceMergesEveryChunkStream(t *testing.T) {
	req := service.JobRequest{Spec: swarmSpec(), Photons: 30, ChunkPhotons: 4, Seed: 9}
	ref, err := reference(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Launched != 30 {
		t.Fatalf("reference launched %d photons, want 30", ref.Launched)
	}
	if err := checkEnergy(ref); err != nil {
		t.Fatal(err)
	}
	// The same tally through a result body's JSON round trip verifies.
	body, err := json.Marshal(service.JobResultBody{ID: "1", Tally: ref})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultTally(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareTally(got, ref); err != nil {
		t.Fatalf("round-tripped reference differs: %v", err)
	}
	// A different seed is different physics and must not verify.
	other, err := reference(service.JobRequest{Spec: swarmSpec(), Photons: 30, ChunkPhotons: 4, Seed: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareTally(other, ref); err == nil {
		t.Fatal("tallies of different seeds compared equal")
	}
}

func TestCompareTallyToleratesOnlyRoundoff(t *testing.T) {
	req := service.JobRequest{Spec: swarmSpec(), Photons: 20, ChunkPhotons: 5, Seed: 3}
	ref, err := reference(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *mc.Tally {
		b, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var c mc.Tally
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	c := clone()
	c.DiffuseWeight *= 1 + 1e-12
	if err := compareTally(c, ref); err != nil {
		t.Errorf("last-bits difference rejected: %v", err)
	}
	c = clone()
	c.DiffuseWeight *= 1 + 1e-6
	if err := compareTally(c, ref); err == nil || !strings.Contains(err.Error(), "DiffuseWeight") {
		t.Errorf("1e-6 weight difference: err = %v", err)
	}
	c = clone()
	c.LayerReached[0]++
	if err := compareTally(c, ref); err == nil || !strings.Contains(err.Error(), "LayerReached[0]") {
		t.Errorf("count difference: err = %v", err)
	}
}

func TestTargetedReferenceNeedsWholeChunks(t *testing.T) {
	req := service.JobRequest{Spec: swarmSpec(), ChunkPhotons: 10, Seed: 5,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.5}}
	ref, err := reference(req, 40)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Launched != 40 || ref.Moments == nil {
		t.Errorf("targeted reference launched %d, moments %v; want 40 with moments", ref.Launched, ref.Moments != nil)
	}
	if _, err := reference(req, 45); err == nil {
		t.Error("a launched count off the chunk grid produced a reference")
	}
}
