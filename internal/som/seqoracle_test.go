package som

import (
	"fmt"
	"math"
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// This file keeps the sequential trainer's previous inner loops
// verbatim — the two-pass difference+AXPY neighbourhood update with a
// per-unit math.Exp, and the single-chain brute BMU scan — as oracles
// for the fused update, the per-step kernel table and the four-chain
// scan that replaced them. Every comparison is on Float64bits: the
// rewrite must not move a single trained weight.

// oracleUpdateNeighbourhood is the previous updateNeighbourhood.
func oracleUpdateNeighbourhood(m *Map, x vecmath.Vector, br, bc int, alpha, sigma float64, diff vecmath.Vector) {
	const cutoff = 3.0
	reach := int(math.Ceil(cutoff * sigma))
	r0, r1 := maxInt(0, br-reach), minInt(m.rows-1, br+reach)
	c0, c1 := maxInt(0, bc-reach), minInt(m.cols-1, bc+reach)
	inv2s2 := 1 / (2 * sigma * sigma)
	for gr := r0; gr <= r1; gr++ {
		for gc := c0; gc <= c1; gc++ {
			dr, dc := float64(gr-br), float64(gc-bc)
			h := alpha * math.Exp(-(dr*dr+dc*dc)*inv2s2)
			if h < 1e-9 {
				continue
			}
			w := m.weights[gr*m.cols+gc]
			for j := range w {
				diff[j] = x[j] - w[j]
			}
			w.AXPYInPlace(h, diff)
		}
	}
}

// oracleBMUBrute is the previous single-chain bmuBrute.
func oracleBMUBrute(m *Map, x vecmath.Vector) (unit int, sqDist float64) {
	dim := m.dim
	if len(x) != dim {
		panic(fmt.Sprintf("som: input dim %d != map dim %d", len(x), dim))
	}
	flat := m.flat
	best, bestDist := 0, math.Inf(1)
	for u, off := 0, 0; off < len(flat); u, off = u+1, off+dim {
		w := flat[off : off+dim]
		sum := 0.0
		for i, xi := range x {
			d := xi - w[i]
			sum += d * d
		}
		if sum < bestDist {
			best, bestDist = u, sum
		}
	}
	return best, bestDist
}

// oracleTrainSequential mirrors TrainCtx for the sequential algorithm
// (same defaults, seeded source, initialization and schedules) but
// runs the oracle inner loops.
func oracleTrainSequential(cfg Config, samples []vecmath.Vector) *Map {
	c := cfg.withDefaults()
	m := newMap(c.Rows, c.Cols, len(samples[0]))
	r := rng.New(c.Seed)
	if c.Init == InitRandom || !m.initPCA(samples) {
		m.initRandom(samples, r)
	}
	floor := c.SigmaFinal
	if floor <= 0 {
		floor = sigmaFloor
	}
	diff := vecmath.NewVector(m.dim)
	for n := 0; n < c.Steps; n++ {
		t := float64(n) / float64(c.Steps)
		alpha := c.LearningDecay.value(c.Alpha0, alphaFloor, t)
		sigma := c.RadiusDecay.value(c.Sigma0, floor, t)
		x := samples[r.Intn(len(samples))]
		u, _ := oracleBMUBrute(m, x)
		oracleUpdateNeighbourhood(m, x, u/m.cols, u%m.cols, alpha, sigma, diff)
	}
	return m
}

// firstBitDiff returns the index of the first weight whose bits differ
// between the two maps' backing arrays, or -1.
func firstBitDiff(a, b *Map) int {
	for i := range a.flat {
		if math.Float64bits(a.flat[i]) != math.Float64bits(b.flat[i]) {
			return i
		}
	}
	return -1
}

// randomSamples draws n standard-normal vectors of the given dim.
func randomSamples(n, dim int, seed uint64) []vecmath.Vector {
	r := rng.New(seed)
	out := make([]vecmath.Vector, n)
	for i := range out {
		out[i] = make(vecmath.Vector, dim)
		for j := range out[i] {
			out[i][j] = r.NormFloat64()
		}
	}
	return out
}

// TestSequentialTrainingMatchesOracle trains every combination of
// seed, grid shape (unit counts with and without a multiple of four),
// decay schedule and initialization with both the production trainer
// and the oracle, and requires bit-identical weights.
func TestSequentialTrainingMatchesOracle(t *testing.T) {
	data := map[string][]vecmath.Vector{
		"blobs":  benchSamples(14, 13),
		"random": randomSamples(23, 7, 5),
	}
	grids := [][2]int{{5, 4}, {6, 6}, {10, 10}, {3, 7}, {12, 12}}
	decays := []Decay{DecayExponential, DecayLinear, DecayInverse}
	inits := []InitMode{InitPCA, InitRandom}
	for name, samples := range data {
		for _, g := range grids {
			for _, d := range decays {
				for _, init := range inits {
					for seed := uint64(1); seed <= 5; seed++ {
						cfg := Config{
							Rows: g[0], Cols: g[1], Steps: 1500, Seed: seed,
							LearningDecay: d, RadiusDecay: d, Init: init,
						}
						got, err := Train(cfg, samples)
						if err != nil {
							t.Fatal(err)
						}
						want := oracleTrainSequential(cfg, samples)
						if i := firstBitDiff(got, want); i >= 0 {
							t.Errorf("%s %dx%d decay=%v init=%d seed=%d: weight %d = %v, oracle %v",
								name, g[0], g[1], d, init, seed, i, got.flat[i], want.flat[i])
						}
					}
				}
			}
		}
	}
}

// TestSequentialTrainingMatchesOracleDefaults covers the schedule
// options the grid sweep leaves at their defaults: the full default
// step count and an explicit radius floor and starting values.
func TestSequentialTrainingMatchesOracleDefaults(t *testing.T) {
	samples := benchSamples(14, 20)
	for _, cfg := range []Config{
		{Rows: 5, Cols: 4, Seed: 3},
		{Rows: 4, Cols: 5, Seed: 2, SigmaFinal: 1.2, Sigma0: 1.7, Alpha0: 0.9, Steps: 4000},
		{Rows: 7, Cols: 3, Seed: 4, Sigma0: 0.2, Steps: 2000},
	} {
		got, err := Train(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(got, oracleTrainSequential(cfg, samples)); i >= 0 {
			t.Errorf("%+v: weight %d differs from the oracle", cfg, i)
		}
	}
}

// TestBMUBruteMatchesOracle compares the four-chain scan with the
// single-chain oracle on random maps of every unit count from 1 to 13
// (so every remainder mod 4 is covered) plus larger ones. Some units
// duplicate earlier ones, so ties must go to the lowest index, and
// some weights and queries carry NaN components.
func TestBMUBruteMatchesOracle(t *testing.T) {
	r := rng.New(11)
	shapes := [][2]int{{1, 13}, {5, 4}, {3, 7}, {6, 6}, {10, 10}}
	for n := 1; n <= 12; n++ {
		shapes = append(shapes, [2]int{1, n})
	}
	for _, dim := range []int{1, 3, 8} {
		for _, s := range shapes {
			m := newMap(s[0], s[1], dim)
			units := s[0] * s[1]
			for i := range m.flat {
				m.flat[i] = math.Round(4*r.NormFloat64()) / 4
			}
			for u := 1; u < units; u++ {
				switch r.Intn(6) {
				case 0: // duplicate an earlier unit: a guaranteed tie
					copy(m.weights[u], m.weights[r.Intn(u)])
				case 1:
					m.weights[u][r.Intn(dim)] = math.NaN()
				}
			}
			for q := 0; q < 200; q++ {
				x := make(vecmath.Vector, dim)
				if q%2 == 0 {
					// Query an existing unit's weights: exact-zero
					// distances and ties are common.
					copy(x, m.weights[r.Intn(units)])
				} else {
					for j := range x {
						x[j] = math.Round(4*r.NormFloat64()) / 4
					}
				}
				if q%17 == 0 {
					x[r.Intn(dim)] = math.NaN()
				}
				gu, gd := m.bmuBrute(x)
				wu, wd := oracleBMUBrute(m, x)
				if gu != wu || math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("dim %d, %dx%d, query %d: bmuBrute = (%d, %v), oracle (%d, %v)",
						dim, s[0], s[1], q, gu, gd, wu, wd)
				}
			}
		}
	}
}
