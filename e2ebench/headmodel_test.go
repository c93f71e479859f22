package main

import (
	"math"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
)

// The physics workload cannot submit tissue.AdultHead over HTTP (its
// semi-infinite white matter is +Inf, which JSON cannot encode), so it
// submits the head cut at whiteMatterMM. This checks, in-process, that the
// cut changes nothing measurable: the stand-in's diffuse reflectance
// matches the semi-infinite head's within statistical tolerance, and no
// photon reaches the new bottom.
func TestHeadStandInMatchesSemiInfiniteHead(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 16k adult-head photons")
	}
	const photons = 8000
	run := func(m *tissue.Model, seed uint64) *mc.Tally {
		spec := mc.NewSpec(m, source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 25, RMax: 35})
		cfg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		tally, err := mc.RunStreamFan(cfg, photons, seed, 0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEnergy(tally); err != nil {
			t.Fatal(err)
		}
		return tally
	}
	// Independent seeds, so the comparison is statistical rather than a
	// replay of the same photon paths.
	semi := run(tissue.AdultHead(), 101)
	cut := run(headStandIn(), 202)
	// Each photon's diffuse weight lies in [0,1], so its variance is at
	// most 1/4; four standard errors of the difference of two means.
	tol := 4 * math.Sqrt(2*0.25/photons)
	if d := math.Abs(cut.DiffuseReflectance() - semi.DiffuseReflectance()); d > tol {
		t.Errorf("Rd stand-in %.4f vs semi-infinite %.4f: |Δ| %.4f > %.4f",
			cut.DiffuseReflectance(), semi.DiffuseReflectance(), d, tol)
	}
	if tr := cut.Transmittance(); tr > 1e-4 {
		t.Errorf("stand-in transmits %g of the light through its %g mm white matter", tr, float64(whiteMatterMM))
	}
	if got := headStandIn().Layers[4].Thickness; got != whiteMatterMM || tissue.AdultHead().Layers[4].Thickness != math.Inf(1) {
		t.Errorf("stand-in white matter %g mm; AdultHead must stay untouched", got)
	}
}
