package mc_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/tissue"
)

// dyadic returns a random non-negative dyadic rational k/256 with k <
// 2^16. Sums of such values stay exactly representable far beyond any
// count these tests reach, so float64 addition over them is associative
// and order-insensitive *bit-for-bit* — which lets the properties below
// demand exact equality instead of hiding behind tolerances.
func dyadic(r *rand.Rand) float64 { return float64(r.Intn(1<<16)) / 256 }

func dyadicRunning(r *rand.Rand) stats.Running {
	n := int64(r.Intn(5))
	var acc stats.Running
	for i := int64(0); i < n; i++ {
		acc.Add(dyadic(r), 1+dyadic(r))
	}
	return acc
}

// dyadicTally builds a random tally (fixed 4-region shape) whose every
// field is a sum of dyadic rationals, including the moment accumulators
// and optional histograms.
func dyadicTally(r *rand.Rand) *mc.Tally {
	t := &mc.Tally{
		Launched:           int64(r.Intn(1000)),
		SpecularWeight:     dyadic(r),
		DiffuseWeight:      dyadic(r),
		TransmitWeight:     dyadic(r),
		AbsorbedWeight:     dyadic(r),
		LateralWeight:      dyadic(r),
		RouletteGain:       dyadic(r),
		RouletteLoss:       dyadic(r),
		DetectedCount:      int64(r.Intn(100)),
		DetectedWeight:     dyadic(r),
		GateRejected:       dyadic(r),
		PathStats:          dyadicRunning(r),
		OptPathStats:       dyadicRunning(r),
		DepthStats:         dyadicRunning(r),
		ScatterStats:       dyadicRunning(r),
		LayerAbsorbed:      make([]float64, 4),
		LayerReached:       make([]int64, 4),
		LayerEnteredWeight: make([]float64, 4),
	}
	for i := 0; i < 4; i++ {
		t.LayerAbsorbed[i] = dyadic(r)
		t.LayerReached[i] = int64(r.Intn(50))
		t.LayerEnteredWeight[i] = dyadic(r)
	}
	if r.Intn(2) == 0 {
		t.PathHist = stats.NewHistogram(0, 16, 8)
		for i := 0; i < 8; i++ {
			t.PathHist.Add(float64(i)*2+0.5, dyadic(r))
		}
	}
	t.Moments = &mc.Moments{
		Diffuse:  dyadicRunning(r),
		Transmit: dyadicRunning(r),
		Absorbed: dyadicRunning(r),
		Detected: dyadicRunning(r),
	}
	return t
}

func cloneViaJSON(t *testing.T, tally *mc.Tally) *mc.Tally {
	t.Helper()
	blob, err := json.Marshal(tally)
	if err != nil {
		t.Fatal(err)
	}
	out := &mc.Tally{}
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQuickMergeAssociativeOrderInsensitive is the property-based merge
// check: for random dyadic-valued tallies a, b, c — moment and variance
// fields included — (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) are bit-identical, and so
// is any permutation of the merge order.
func TestQuickMergeAssociativeOrderInsensitive(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := dyadicTally(r), dyadicTally(r), dyadicTally(r)

		left := cloneViaJSON(t, a)
		if err := left.Merge(b); err != nil {
			return false
		}
		if err := left.Merge(c); err != nil {
			return false
		}

		bc := cloneViaJSON(t, b)
		if err := bc.Merge(c); err != nil {
			return false
		}
		right := cloneViaJSON(t, a)
		if err := right.Merge(bc); err != nil {
			return false
		}

		perm := cloneViaJSON(t, c)
		if err := perm.Merge(a); err != nil {
			return false
		}
		if err := perm.Merge(b); err != nil {
			return false
		}

		lj, _ := json.Marshal(left)
		rj, _ := json.Marshal(right)
		pj, _ := json.Marshal(perm)
		return bytes.Equal(lj, rj) && bytes.Equal(lj, pj)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMomentAccumulatorProperties checks the Moments layer alone:
// merging chunk recordings in any order and grouping reproduces the same
// accumulator, and the weighted mean of the samples equals the pooled
// per-photon observable.
func TestQuickMomentAccumulatorProperties(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		chunks := make([]*mc.Tally, n)
		var totalPhotons int64
		var totalDiffuse float64
		for i := range chunks {
			photons := int64(64 + r.Intn(64)) // dyadic-exact weights
			diffuse := float64(r.Intn(int(photons))) / 4
			chunks[i] = &mc.Tally{Launched: photons, DiffuseWeight: diffuse}
			chunks[i].RecordChunkMoments()
			totalPhotons += photons
			totalDiffuse += diffuse
		}
		merged := &mc.Tally{}
		for _, idx := range rand.New(rand.NewSource(seed + 1)).Perm(n) {
			if err := merged.Merge(chunks[idx]); err != nil {
				return false
			}
		}
		m := merged.Moments
		if m == nil || m.Diffuse.N != int64(n) {
			return false
		}
		if m.Diffuse.SumW != float64(totalPhotons) {
			return false
		}
		// Weighted chunk means pool back to the global per-photon ratio
		// (each sample is chunkDiffuse/chunkN weighted by chunkN; the
		// division is not exact, so compare to a few ulps).
		pooled := totalDiffuse / float64(totalPhotons)
		if math.Abs(m.Diffuse.Mean()-pooled) > 1e-12*math.Max(1, math.Abs(pooled)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomBitsTally builds a tally with adversarial float64 bit patterns
// (negative zero, denormals, infinities, NaN payloads) to pin the codec's
// bit-exactness promise independent of value semantics.
func randomBitsTally(r *rand.Rand) *mc.Tally {
	f := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Float64frombits(r.Uint64() & 0xF) // denormals
		case 3:
			return math.Inf(1 - 2*r.Intn(2))
		default:
			return math.Float64frombits(r.Uint64())
		}
	}
	regions := r.Intn(6)
	t := &mc.Tally{
		Launched:           int64(r.Uint64()),
		SpecularWeight:     f(),
		DiffuseWeight:      f(),
		AbsorbedWeight:     f(),
		LateralWeight:      f(),
		DetectedWeight:     f(),
		LayerAbsorbed:      make([]float64, regions),
		LayerReached:       make([]int64, regions),
		LayerEnteredWeight: make([]float64, regions),
	}
	for i := 0; i < regions; i++ {
		t.LayerAbsorbed[i] = f()
		t.LayerReached[i] = int64(r.Uint64())
		t.LayerEnteredWeight[i] = f()
	}
	if r.Intn(2) == 0 {
		t.Moments = &mc.Moments{}
		for _, acc := range []*stats.Running{
			&t.Moments.Diffuse, &t.Moments.Transmit, &t.Moments.Absorbed, &t.Moments.Detected} {
			acc.N = int64(r.Intn(1000))
			acc.SumW, acc.SumWX, acc.SumWX2, acc.MinV, acc.MaxV = f(), f(), f(), f(), f()
		}
	}
	return t
}

// TestQuickCodecRoundTripExact: encode → decode → re-encode must
// reproduce the frame byte-for-byte for arbitrary bit patterns, moments
// present or absent, including decoding into a reused scratch tally whose
// previous frame had a different shape (the reducer's steady state).
func TestQuickCodecRoundTripExact(t *testing.T) {
	scratch := &mc.Tally{}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tally := randomBitsTally(r)
		frame := mc.AppendTally(nil, tally)
		if tally.Moments != nil {
			if frame[0] != mc.TallyFormatVersionMoments {
				return false
			}
		} else if frame[0] != mc.TallyFormatVersion {
			return false
		}
		if err := mc.DecodeTallyInto(scratch, frame); err != nil {
			return false
		}
		if (scratch.Moments == nil) != (tally.Moments == nil) {
			return false
		}
		return bytes.Equal(mc.AppendTally(nil, scratch), frame)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMomentsRecordingSemantics pins where samples come from: one per
// single-stream chunk, one per fan sub-stream, none on the legacy path,
// and estimates consistent with the tally's direct ratios.
func TestMomentsRecordingSemantics(t *testing.T) {
	spec := mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		source.Spec{Kind: source.KindPencil}, detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	spec.TrackMoments = true
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}

	const chunks, photons = 5, 300
	total := mc.NewTally(cfg)
	for s := 0; s < chunks; s++ {
		tt, err := mc.RunStream(cfg, photons, 7, s, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if tt.Moments == nil || tt.Moments.Diffuse.N != 1 {
			t.Fatalf("chunk %d recorded %v samples, want 1", s, tt.Moments)
		}
		if err := total.Merge(tt); err != nil {
			t.Fatal(err)
		}
	}
	if total.Moments.Diffuse.N != chunks {
		t.Fatalf("merged %d samples, want %d", total.Moments.Diffuse.N, chunks)
	}
	if total.Moments.Diffuse.SumW != float64(chunks*photons) {
		t.Fatalf("sample weight %g, want %d", total.Moments.Diffuse.SumW, chunks*photons)
	}
	est, ci := total.EstimateCI(mc.ObsDiffuse)
	if math.Abs(est-total.DiffuseReflectance()) > 1e-9 {
		t.Fatalf("estimate %g != ratio %g", est, total.DiffuseReflectance())
	}
	if !(ci > 0) || math.IsInf(ci, 1) {
		t.Fatalf("ci %g not finite-positive", ci)
	}
	if rse := total.RelStdErr(mc.ObsDiffuse); !(rse > 0) || math.IsInf(rse, 1) {
		t.Fatalf("rse %g not finite-positive", rse)
	}

	// Fanned chunk: one sample per sub-stream, deterministic.
	fanTally, err := mc.RunStreamFan(cfg, photons, 7, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fanTally.Moments.Diffuse.N != 3 {
		t.Fatalf("fan recorded %d samples, want 3", fanTally.Moments.Diffuse.N)
	}

	// Legacy path stays moment-free.
	legacyCfg, err := mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		source.Spec{Kind: source.KindPencil}, detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}).Build()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := mc.RunStream(legacyCfg, photons, 7, 0, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Moments != nil {
		t.Fatal("legacy run grew moments")
	}
	if !math.IsInf(legacy.RelStdErr(mc.ObsDiffuse), 1) {
		t.Fatal("legacy run reports a finite RSE")
	}
}
