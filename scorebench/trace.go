package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"hmeans/internal/gateway"
	"hmeans/internal/load"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

const (
	// walkSamples is how many retained cold responses the traced run
	// walks through the layers, and warmWalkSamples how many warm pool
	// entries.
	walkSamples     = 6
	warmWalkSamples = 16
)

// The paths a sampled request is answered along in the traced run.
const (
	// pathScore is Server.Score in process: a fresh server for a cold
	// request, the home replica's for a warm one.
	pathScore = iota
	// pathPlain is the layer walk without spans.
	pathPlain
	// pathTraced is the layer walk recording spans.
	pathTraced
	// pathHTTP is POST /v1/score: to a fresh daemon for a cold
	// request, through the gateway for a warm one.
	pathHTTP
	numPaths
)

// walkOrder gives the order of the paths in each round: a balanced
// Latin square, in which every path takes every position once and
// follows every other path once, so neither its place in a round nor
// the work just before it favours one path. Its rounds run twice.
var walkOrder = [numPaths][numPaths]int{
	{pathScore, pathPlain, pathHTTP, pathTraced},
	{pathPlain, pathTraced, pathScore, pathHTTP},
	{pathTraced, pathHTTP, pathPlain, pathScore},
	{pathHTTP, pathScore, pathTraced, pathPlain},
}

// walkRounds is how many times each sampled request is answered along
// each path.
const walkRounds = 2 * numPaths

// layerMetrics derives each span-timed per-layer metric from one
// traced walk. Where the program's spans nest, the layer inside is
// subtracted: the reduce stage beyond som.train is the placement, the
// cluster stage beyond cluster.linkage the condensed distance build.
var layerMetrics = map[string]func(w walkTimes) time.Duration{
	"som.train_ms": func(w walkTimes) time.Duration { return w.incl["som.train"] },
	"som.place_ms": func(w walkTimes) time.Duration {
		if w.incl["som.train"] == 0 {
			return 0
		}
		return w.incl["reduce"] - w.incl["som.train"]
	},
	"cluster.quality_sweep_ms": func(w walkTimes) time.Duration {
		if !w.qualityOnly {
			return 0
		}
		return w.incl["kselect"]
	},
	"cluster.dendrogram_ms": func(w walkTimes) time.Duration { return w.incl["cluster.linkage"] },
	"vecmath.condensed_ms": func(w walkTimes) time.Duration {
		return w.incl["cluster"] - w.incl["cluster.linkage"]
	},
	"core.kselect_ms":     func(w walkTimes) time.Duration { return w.incl["kselect"] },
	"core.detect_ms":      func(w walkTimes) time.Duration { return w.incl["pipeline"] },
	"core.sweep_ms":       func(w walkTimes) time.Duration { return w.incl["core.sweep"] },
	"chars.preprocess_ms": func(w walkTimes) time.Duration { return w.incl["characterize"] },
	"service.decode_ms":   func(w walkTimes) time.Duration { return w.incl["service.decode"] },
	"service.validate_ms": func(w walkTimes) time.Duration { return w.incl["service.validate"] },
	"service.cachekey_ms": func(w walkTimes) time.Duration { return w.incl["service.cachekey"] },
	"service.encode_ms":   func(w walkTimes) time.Duration { return w.incl["service.encode"] },
	"service.digest_ms":   func(w walkTimes) time.Duration { return w.incl["service.digest"] },
	"gateway.forward_ms":  func(w walkTimes) time.Duration { return w.incl["gateway.forward"] },
}

// spanOrder is the order the span table lists the walk's spans in.
// som.train, cluster.linkage and the names without a dot are the
// program's own spans; the others are the walk's.
var spanOrder = []string{
	"request", "service.decode", "service.score", "service.validate", "service.cachekey",
	"pipeline", "validate", "characterize", "reduce", "som.train", "cluster",
	"cluster.linkage", "kselect", "core.sweep", "cut", "means",
	"service.encode", "gateway.ring", "gateway.forward", "service.digest",
}

// tracedRun sets up once and runs the timed phase untraced, for the
// end-to-end latency the layer figures are set against and for the
// cache, queue and routing counts. It then answers sampled requests
// again along four paths (Server.Score, the untraced and the traced
// layer walk, and HTTP), all of which must equal what the stack
// served. The spans are written as JSONL when the run ends and
// validated with cmd/report.
func tracedRun(stdout io.Writer, w workload, seed uint64, seconds int, outDir, reportBin string) (*outcome, error) {
	e, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	d := time.Duration(seconds) * time.Second
	p := e.closedLoop(d, false, true)
	out := newOutcome()
	out.addPhase(p)
	if len(p.lat) == 0 {
		return out, e.close()
	}
	v := out.values
	e2e := median(p.lat)
	okCount := float64(len(p.lat))
	v["service.hit_share"] = float64(p.cache[service.CacheHit]) / okCount
	v["service.coalesced_share"] = float64(p.cache[service.CacheCoalesced]) / okCount
	v["service.queue_max"] = float64(p.queueMax)

	// Each sampled request is answered walkRounds times along each
	// path, in the rounds of walkOrder, and every answer must equal
	// what the stack served. Differences and ratios between paths are
	// taken within a round, whose answers run back to back, so the
	// host's drift between rounds cancels out.
	col := obs.NewCollector()
	o := obs.New(col)
	var paths [numPaths]func(j int, req *service.Request) answer
	want := service.CacheMiss
	var samples []int
	var httpName string
	if w.hits {
		direct := e.closedLoop(d/2, true, false)
		out.addPhase(direct)
		v["gateway.hop_ms"] = ms(e2e - median(direct.lat))
		var top int
		for _, n := range p.replicas {
			top = max(top, n)
		}
		v["gateway.replica_share_max"] = float64(top) / okCount
		v["gateway.off_home_share"] = float64(p.offHome) / okCount

		ring := e.cluster.Gateway().Ring()
		v["gateway.ring_us"] = ringMicros(ring, e.keys)
		remotes := make(map[string]*service.Remote)
		for _, r := range e.cluster.Replicas {
			remotes[r.URL] = service.NewRemote(service.RemoteConfig{BaseURL: r.URL, Client: e.hc})
		}
		want, samples, httpName = service.CacheHit, e.sample(p, seed, warmWalkSamples), "gateway"
		paths[pathScore] = func(j int, req *service.Request) answer {
			home, err := e.replica(e.home[j])
			if err != nil {
				return answer{err: err}
			}
			return clock(func() ([]byte, string, error) { return home.Server().Score(context.Background(), req) })
		}
		paths[pathPlain] = func(j int, _ *service.Request) answer {
			return clock(func() ([]byte, string, error) { return walkWarm(nil, e.bodies[j], ring, remotes) })
		}
		paths[pathTraced] = func(j int, _ *service.Request) answer {
			return clock(func() ([]byte, string, error) { return walkWarm(o, e.bodies[j], ring, remotes) })
		}
		paths[pathHTTP] = func(j int, _ *service.Request) answer {
			return clock(func() ([]byte, string, error) { return postChecked(e.hc, e.url, e.bodies[j], want) })
		}
	} else {
		cfg := serverConfig()
		samples, httpName = e.sample(p, seed, walkSamples), "fresh daemon"
		paths[pathScore] = func(_ int, req *service.Request) answer {
			srv := service.New(cfg)
			return clock(func() ([]byte, string, error) { return srv.Score(context.Background(), req) })
		}
		paths[pathPlain] = func(j int, _ *service.Request) answer {
			return clock(func() ([]byte, string, error) {
				raw, err := walkCold(nil, e.bodies[j], cfg)
				return raw, service.CacheMiss, err
			})
		}
		paths[pathTraced] = func(j int, _ *service.Request) answer {
			return clock(func() ([]byte, string, error) {
				raw, err := walkCold(o, e.bodies[j], cfg)
				return raw, service.CacheMiss, err
			})
		}
		// The daemon boots and stops outside the clock: only the
		// request is timed.
		paths[pathHTTP] = func(j int, _ *service.Request) answer {
			daemon, err := load.StartDaemon(cfg)
			if err != nil {
				return answer{err: err}
			}
			hc := newHTTPClient(1)
			a := clock(func() ([]byte, string, error) { return postChecked(hc, daemon.URL, e.bodies[j], want) })
			hc.CloseIdleConnections()
			if err := daemon.Close(); a.err == nil {
				a.err = err
			}
			return a
		}
	}
	names := [numPaths]string{"Server.Score", "untraced walk", "traced walk", "HTTP through the " + httpName}
	// One entry per round, aligned across paths: each path's time and
	// the traced walk's spans folded by name.
	var took [numPaths][]time.Duration
	var walks []walkTimes
	var reqKB, respKB []float64
	deadline := time.Now().Add(d)
	for _, j := range samples {
		if len(walks) > 0 && time.Now().After(deadline) {
			break
		}
		served := e.servedBody(p, j)
		for r := 0; r < walkRounds; r++ {
			var round [numPaths]answer
			var traced []obs.SpanData
			for _, path := range walkOrder[r%numPaths] {
				// Server.Score takes the decoded request, as the
				// handler hands it over; the other paths start from
				// the body.
				req, err := decodeBody(e.bodies[j])
				if err != nil {
					round[path].err = err
					continue
				}
				mark := len(col.Trace().Spans)
				// A fresh heap, so that collecting the previous
				// answer's garbage does not land in this one.
				runtime.GC()
				round[path] = paths[path](j, req)
				if path == pathTraced {
					traced = col.Trace().Spans[mark:]
				}
			}
			ok := true
			for path, a := range round {
				err := sameReply(names[path], j, a.raw, a.status, a.err, want, served)
				out.check(err)
				ok = ok && err == nil
			}
			if !ok {
				continue
			}
			for path, a := range round {
				took[path] = append(took[path], a.took)
			}
			walks = append(walks, foldWalk(traced))
		}
		reqKB = append(reqKB, float64(len(e.bodies[j]))/1024)
		respKB = append(respKB, float64(len(served))/1024)
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}

	spans := col.Trace().Spans
	for m, f := range layerMetrics {
		v[m] = ms(overWalks(walks, f))
	}
	// som.train opens one span per training, with the grid's shape;
	// sequential training adds its step count to the som.steps
	// counter.
	var trainings int
	for _, s := range spans {
		if s.Name != "som.train" {
			continue
		}
		if trainings == 0 {
			rows, _ := spanAttr(s, "rows").(int)
			cols, _ := spanAttr(s, "cols").(int)
			v["som.units"] = float64(rows * cols)
		}
		trainings++
	}
	if trainings > 0 {
		v["som.steps"] = float64(o.Metrics().Counter("som.steps").Value()) / float64(trainings)
	}
	v["service.request_kb"] = median(reqKB)
	v["service.response_kb"] = median(respKB)
	diffMS := func(x, y time.Duration) float64 { return ms(x - y) }
	ratio := func(x, y time.Duration) float64 { return float64(x) / float64(y) }
	score := took[pathScore]
	v["service.score_ms"] = ms(median(score))
	v["service.http_ms"] = pairedMedian(took[pathHTTP], score, diffMS)
	roots := make([]time.Duration, len(walks))
	layers := make([]time.Duration, len(walks))
	for i, t := range walks {
		roots[i] = t.incl["request"]
		layers[i] = t.incl["service.score"] - t.self["service.score"]
	}
	v["trace.overhead_ms"] = pairedMedian(roots, took[pathPlain], diffMS)
	// walk.coverage is the share of a reference time the walk's layer
	// spans account for: on a cold request the spans nested in the
	// walk's service.score against Server.Score, on a warm one the
	// whole walk against the request sent through the gateway.
	if w.hits {
		v["walk.coverage"] = pairedMedian(roots, took[pathHTTP], ratio)
	} else {
		v["walk.coverage"] = pairedMedian(layers, score, ratio)
	}

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
	err = writeTrace(path, spans)
	if err == nil {
		err = validateTrace(stdout, reportBin, path)
	}
	out.check(err)

	fmt.Fprintf(stdout, "timed phase (untraced): %d requests in %.2f s, p50 %.4f ms\n",
		p.attempted, p.elapsed.Seconds(), ms(e2e))
	fmt.Fprintf(stdout, "layer walk: %d requests × %d rounds, p50 of Server.Score %.4f ms, untraced walk %.4f ms, traced walk %.4f ms, HTTP %.4f ms\n",
		len(reqKB), walkRounds, ms(median(score)), ms(median(took[pathPlain])), ms(median(roots)), ms(median(took[pathHTTP])))
	fmt.Fprintf(stdout, "%-24s %12s %12s\n", "span", "p50_ms", "self_p50_ms")
	for _, name := range spanOrder {
		if len(walks) == 0 {
			break
		}
		if _, ok := walks[0].incl[name]; ok {
			incl := overWalks(walks, func(w walkTimes) time.Duration { return w.incl[name] })
			self := overWalks(walks, func(w walkTimes) time.Duration { return w.self[name] })
			fmt.Fprintf(stdout, "%-24s %12.4f %12.4f\n", name, ms(incl), ms(self))
		}
	}
	for _, m := range perLayer {
		fmt.Fprintf(stdout, "%s/%s %.4f %s\n", w.name, m.name, v[m.name], m.unit)
	}
	return out, nil
}

// answer is one re-answered request and how long the answer took.
type answer struct {
	raw    []byte
	status string
	took   time.Duration
	err    error
}

// clock times f.
func clock(f func() ([]byte, string, error)) answer {
	start := time.Now()
	raw, status, err := f()
	return answer{raw: raw, status: status, took: time.Since(start), err: err}
}

// postChecked posts body and applies the per-response checks.
func postChecked(hc *http.Client, base string, body []byte, wantCache string) ([]byte, string, error) {
	rep, err := post(hc, base, body)
	if err == nil {
		err = rep.check(wantCache)
	}
	return rep.body, rep.cache, err
}

// sameReply checks one re-answered request against what the stack
// served for it.
func sameReply(what string, j int, raw []byte, status string, err error, wantStatus string, served []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("body %d: %s: %w", j, what, err)
	case status != wantStatus:
		return fmt.Errorf("body %d: %s answered as a %s, want %s", j, what, status, wantStatus)
	case !bytes.Equal(raw, served):
		return fmt.Errorf("body %d: %s response differs from the served one %s", j, what, firstDiff(raw, served))
	}
	return nil
}

// ringSink keeps ringMicros' lookups from being optimized away.
var ringSink string

// ringMicros times Ring.Home over the pool's keys, in µs per lookup. A
// lookup is far shorter than a span's own cost, so it is timed in bulk.
func ringMicros(r *gateway.Ring, keys [][32]byte) float64 {
	const rounds = 500
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range keys {
			ringSink = r.Home(k)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(rounds*len(keys))
}

// writeTrace writes the spans as a JSONL trace.
func writeTrace(path string, spans []obs.SpanData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, s := range spans {
		sink.WriteSpan(s)
	}
	if err := sink.Close(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// validateTrace runs cmd/report -validate-trace on the trace.
func validateTrace(stdout io.Writer, reportBin, path string) error {
	msg, err := exec.Command(reportBin, "-validate-trace", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("report -validate-trace %s: %v: %s", path, err, bytes.TrimSpace(msg))
	}
	fmt.Fprintf(stdout, "report -validate-trace: %s\n", bytes.TrimSpace(msg))
	return nil
}
