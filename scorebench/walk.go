package main

import (
	"context"
	"encoding/json"
	"errors"
	"sort"

	"hmeans/internal/chars"
	"hmeans/internal/core"
	"hmeans/internal/gateway"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

// The layer walks answer one request the way the server does: the
// service steps Server.Score runs around compute are called from this
// file with a span around each, and the pipeline is the program's own
// core.DetectClustersCtx and Pipeline.RecommendK, handed the walk's
// observer so that their stage spans (pipeline, characterize, reduce,
// som.train, cluster, cluster.linkage, kselect) time the program's
// code. Only the response assembly, which compute keeps unexported,
// is copied here. The spans go to the observer passed in, never to
// the servers, so the program's own instrumentation stays dark; a nil
// observer gives the untraced walk the tracing overhead is measured
// against. A walk's response must equal the served one byte for byte,
// which checks that the walk takes the server's path.

// walkCold answers a cold request the way Server.Score answers a miss:
// validate, content-address, compute, encode. It supports the options
// the benchmark's requests use.
func walkCold(o *obs.Observer, body []byte, cfg service.Config) ([]byte, error) {
	root := o.StartSpan("request", obs.KV("request_bytes", len(body)))
	defer root.End()

	sp := root.Child("service.decode")
	req, err := decodeBody(body)
	sp.End()
	if err != nil {
		return nil, err
	}
	if req.Config.Quarantine {
		return nil, errors.New("the layer walk does not replay quarantine requests")
	}
	score := root.Child("service.score")
	sp = score.Child("service.validate")
	err = req.Validate()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = score.Child("service.cachekey")
	req.CacheKey()
	sp.End()
	table, err := chars.NewTable(req.Table.Workloads, req.Table.Features, req.Table.Rows)
	if err != nil {
		return nil, err
	}
	// The pipeline configuration Server.compute builds from the
	// request and the server's flags.
	pc := core.PipelineConfig{
		SkipSOM:          req.Config.SkipSOM,
		SoftPlacement:    req.Config.SoftPlacement,
		Parallelism:      cfg.Parallelism,
		LinkageAlgorithm: cfg.LinkageAlgorithm,
		Obs:              o,
	}
	if req.Config.Kind == "bits" {
		pc.Kind = core.Bits
	}
	pc.SOM.Seed = req.Config.Seed
	p, err := core.DetectClustersCtx(context.Background(), table, pc)
	if err != nil {
		return nil, err
	}
	resp, err := respond(score, req, p)
	if err != nil {
		return nil, err
	}
	sp = score.Child("service.encode")
	raw, err := json.Marshal(resp)
	raw = append(raw, '\n')
	sp.End()
	score.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("service.digest")
	service.Digest(raw)
	sp.End()
	return raw, nil
}

// respond is the rest of compute: the program's k recommendation,
// then the cuts and the hierarchical means of the sweep, assembled in
// the server's order.
func respond(parent *obs.Span, req *service.Request, p *core.Pipeline) (*service.Response, error) {
	names := make([]string, 0, len(req.Scores))
	for name := range req.Scores {
		names = append(names, name)
	}
	sort.Strings(names)
	aligned := make(map[string][]float64, len(names))
	for _, name := range names {
		v, err := p.AlignScores(req.Scores[name])
		if err != nil {
			return nil, err
		}
		aligned[name] = v
	}
	resp := &service.Response{
		Workloads: p.Workloads,
		Positions: make([][]float64, len(p.Positions)),
		Dendrogram: service.DendrogramJSON{
			N:       p.Dendrogram.Len(),
			Linkage: p.Dendrogram.Linkage().String(),
		},
	}
	for i, v := range p.Positions {
		resp.Positions[i] = v
	}
	for _, m := range p.Dendrogram.Merges() {
		resp.Dendrogram.Merges = append(resp.Dendrogram.Merges,
			service.MergeJSON{A: m.A, B: m.B, Distance: m.Distance, Size: m.Size})
	}
	if p.Map != nil {
		resp.SOM = &service.SOMJSON{Rows: p.Map.Rows(), Cols: p.Map.Cols()}
	}

	n := len(p.Workloads)
	kMin, kMax := req.KMin, req.KMax
	if kMin < 2 {
		kMin = 2
	}
	if kMax == 0 || kMax > n {
		kMax = n
	}
	resp.RecommendedK = 1
	if kMax >= 2 && kMin <= kMax {
		var rec core.KRecommendation
		var err error
		if len(names) >= 2 {
			rec, err = p.RecommendK(core.Geometric, aligned[names[0]], aligned[names[1]], kMin, kMax)
		} else {
			rec, err = p.RecommendKQuality(kMin, kMax)
		}
		if err != nil {
			return nil, err
		}
		resp.RecommendedK = rec.K
	}

	sp := parent.Child("core.sweep")
	defer sp.End()
	cutK := req.K
	if cutK == 0 {
		cutK = resp.RecommendedK
	}
	cut, err := p.ClusteringAtK(cutK)
	if err != nil {
		return nil, err
	}
	members, err := p.ClusterMembers(cutK)
	if err != nil {
		return nil, err
	}
	resp.Cut = service.CutJSON{K: cutK, Labels: cut.Labels, Members: members}
	var sc core.Scorer
	for k := kMin; k <= kMax; k++ {
		c, err := p.ClusteringAtK(k)
		if err != nil {
			return nil, err
		}
		if err := sc.Reset(c); err != nil {
			return nil, err
		}
		for _, name := range names {
			m := service.KMeans{K: k, Vector: name}
			if m.HGM, err = sc.Mean(core.Geometric, aligned[name]); err != nil {
				return nil, err
			}
			if m.HAM, err = sc.Mean(core.Arithmetic, aligned[name]); err != nil {
				return nil, err
			}
			if m.HHM, err = sc.Mean(core.Harmonic, aligned[name]); err != nil {
				return nil, err
			}
			resp.Means = append(resp.Means, m)
		}
	}
	for _, name := range names {
		pm := service.PlainMeans{Vector: name}
		if pm.GM, err = core.PlainMean(core.Geometric, aligned[name]); err != nil {
			return nil, err
		}
		if pm.AM, err = core.PlainMean(core.Arithmetic, aligned[name]); err != nil {
			return nil, err
		}
		if pm.HM, err = core.PlainMean(core.Harmonic, aligned[name]); err != nil {
			return nil, err
		}
		resp.Plain = append(resp.Plain, pm)
	}
	return resp, nil
}

// walkWarm answers a warm request the way the gateway does: decode,
// validate and content-address it, find its home on the ring, forward
// it through service.Remote (re-encode, POST, digest check) and
// re-derive the digest of the bytes it relays. The gateway's lease
// table sits between the ring and the forward; it is unexported, so
// the walk leaves it out.
func walkWarm(o *obs.Observer, body []byte, ring *gateway.Ring, remotes map[string]*service.Remote) ([]byte, string, error) {
	root := o.StartSpan("request", obs.KV("request_bytes", len(body)))
	defer root.End()

	sp := root.Child("service.decode")
	req, err := decodeBody(body)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	sp = root.Child("service.validate")
	err = req.Validate()
	sp.End()
	if err != nil {
		return nil, "", err
	}
	sp = root.Child("service.cachekey")
	key := req.CacheKey()
	sp.End()
	sp = root.Child("gateway.ring")
	home := ring.Home(key)
	sp.End()
	sp = root.Child("gateway.forward")
	raw, status, err := remotes[home].Score(context.Background(), req)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	sp = root.Child("service.digest")
	service.Digest(raw)
	sp.End()
	return raw, status, nil
}
