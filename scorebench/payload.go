package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hmeans/internal/rng"
	"hmeans/internal/service"
	"hmeans/internal/simbench"
)

// workload is one traffic mix. Every workload carries a single request
// class, all misses or all hits, so its latency distribution has one
// mode; README.md records why each one was chosen.
type workload struct {
	name string
	// gateway routes the traffic through a gateway over two replicas
	// instead of straight to one server.
	gateway bool
	// hits marks a workload whose timed requests are all cache hits on
	// a pool warmed during set-up; otherwise every request is a miss.
	hits bool
	// wide sends large-suite bodies (wideBodies) instead of case-study
	// ones.
	wide bool
}

var workloads = []workload{
	{name: "cold-casestudy"},
	{name: "cold-wide", wide: true},
	{name: "warm-gateway", gateway: true, hits: true, wide: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// clients is the number of closed-loop clients of a timed phase.
	// It is below the server's MaxInflight (the CPU count), so the
	// limiter never sheds, and it leaves a core for the collector, the
	// gateway and a future parallel trainer inside one request.
	clients = 1
	// warmPool is the number of distinct requests the warm-gateway
	// client cycles through. It is below each replica's cache size, so
	// no pool entry is ever evicted wherever the ring homes it.
	warmPool = 64
	// cacheSize is cmd/hmeansd's -cache-size default.
	cacheSize = 128
	// coldPool is the number of distinct bodies a cold workload cycles
	// through. The result cache is an LRU of cacheSize entries, so a
	// body comes round again only after more than cacheSize others
	// have pushed it out, and every request is a miss however fast the
	// program serves them.
	coldPool = 2 * cacheSize
	// coldWarmup cold requests go out before the timed phase, to open
	// the client's connection and size the heap. They are the pool's
	// first bodies, which the timed phase reaches again only after the
	// rest of the pool.
	coldWarmup = 2

	// Shape of a large-suite request: a synthetic fleet of wideN
	// workloads by wideDims counters and one score vector. A cold-wide
	// request sweeps to wideKMax clusters. A warm-gateway request
	// sweeps to warmKMax: a hit costs the same whatever the sweep asked
	// for, and the short sweep keeps warming the pool cheap.
	wideN    = 1000
	wideDims = 16
	wideKMax = 32
	warmKMax = 2
)

// bodyCount is the number of request bodies set-up builds.
func bodyCount(w workload) int {
	if w.hits {
		return warmPool
	}
	return coldPool
}

// buildBodies returns the run's request bodies. They are a pure
// function of (workload, seed): the same pair always gives the same
// bytes, and body i does not depend on how many bodies are asked for.
func buildBodies(w workload, seed uint64, n int) ([][]byte, error) {
	switch {
	case w.wide && w.hits:
		return wideBodies(seed, n, warmKMax)
	case w.wide:
		return wideBodies(seed, n, wideKMax)
	}
	return caseStudyBodies(seed, n)
}

// caseStudyBodies builds requests on the paper's 13-workload case
// study: SAR counters from machine A as the characterization, and the
// measured speedups of machines A and B as two score vectors, so the
// server runs the ratio-damped RecommendK. The bodies share one table
// and differ only in their SOM seed, so every one is a distinct cache
// key and a full SOM training.
func caseStudyBodies(seed uint64, n int) ([][]byte, error) {
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	table, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: src.Uint64()})
	if err != nil {
		return nil, err
	}
	ref := simbench.Reference()
	a, err := simbench.MeasuredSpeedups(ws, simbench.MachineA(), ref, 10, src.Uint64())
	if err != nil {
		return nil, err
	}
	b, err := simbench.MeasuredSpeedups(ws, simbench.MachineB(), ref, 10, src.Uint64())
	if err != nil {
		return nil, err
	}
	somBase := src.Uint64()
	req := service.Request{
		Table:  service.TableJSON{Workloads: table.Workloads, Features: table.Features, Rows: table.Rows},
		Scores: map[string][]float64{"A": a, "B": b},
		Config: service.ConfigJSON{Kind: "counters"},
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		req.Config.Seed = somBase + uint64(i)
		if bodies[i], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// wideBodies builds large-suite subsetting requests: each body is its
// own seeded clustered fleet of wideN workloads, clustered without the
// SOM, with one positive score vector (the RecommendKQuality path),
// sweeping to kMax clusters.
func wideBodies(seed uint64, n, kMax int) ([][]byte, error) {
	features := make([]string, wideDims)
	for j := range features {
		features[j] = fmt.Sprintf("c%02d", j)
	}
	names := make([]string, wideN)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
	}
	src := rng.New(seed)
	bodies := make([][]byte, n)
	for b := range bodies {
		spec := simbench.SyntheticSpec{N: wideN, Dims: wideDims, Clusters: 12, Spread: 0.5, Seed: src.Uint64()}
		pts := spec.Points()
		rows := make([][]float64, wideN)
		scores := make([]float64, wideN)
		for i, p := range pts {
			rows[i] = p
			scores[i] = 0.5 + 2*src.Float64()
		}
		req := service.Request{
			Table:  service.TableJSON{Workloads: names, Features: features, Rows: rows},
			Scores: map[string][]float64{"A": scores},
			Config: service.ConfigJSON{Kind: "counters", SkipSOM: true},
			KMax:   kMax,
		}
		var err error
		if bodies[b], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// decodeBody parses a body exactly as the server's handler does:
// unknown fields are rejected.
func decodeBody(body []byte) (*service.Request, error) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}

// cacheKeys returns the content address of every body.
func cacheKeys(bodies [][]byte) ([][32]byte, error) {
	keys := make([][32]byte, len(bodies))
	for i, b := range bodies {
		req, err := decodeBody(b)
		if err != nil {
			return nil, err
		}
		keys[i] = req.CacheKey()
	}
	return keys, nil
}
