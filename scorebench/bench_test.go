package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"hmeans/internal/obs"
	"hmeans/internal/service"
)

func TestBodiesArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildBodies(w, 7, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildBodies(w, 7, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("seed 7 gave two different bodies %d", i)
				}
			}
			ka, err := cacheKeys(a)
			if err != nil {
				t.Fatal(err)
			}
			kb, err := cacheKeys(b[:len(a)])
			if err != nil {
				t.Fatal(err)
			}
			for i := range ka {
				if ka[i] != kb[i] {
					t.Fatalf("seed 7 gave two different cache keys for body %d", i)
				}
			}
			c, err := buildBodies(w, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a[0], c[0]) {
				t.Fatal("seeds 7 and 8 gave the same first body")
			}
		})
	}
}

func TestColdKeysDistinct(t *testing.T) {
	for _, w := range workloads {
		if w.hits {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			bodies, err := buildBodies(w, 1, bodyCount(w))
			if err != nil {
				t.Fatal(err)
			}
			keys, err := cacheKeys(bodies)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) <= cacheSize {
				t.Fatalf("a pool of %d cold bodies fits the %d-entry cache", len(keys), cacheSize)
			}
			seen := make(map[[32]byte]int)
			for i, k := range keys {
				if j, dup := seen[k]; dup {
					t.Fatalf("bodies %d and %d share a cache key", j, i)
				}
				seen[k] = i
			}
		})
	}
}

// TestWarmPoolFitsEachReplicaCache warms a real two-replica stack and
// checks that each replica holds exactly the pool entries the ring
// homes on it, within its cache, so the timed phase never misses.
func TestWarmPoolFitsEachReplicaCache(t *testing.T) {
	w, _ := workloadByName("warm-gateway")
	if warmPool > cacheSize || serverConfig().CacheSize != cacheSize {
		t.Fatalf("pool of %d against a %d-entry cache", warmPool, serverConfig().CacheSize)
	}
	e, err := setUp(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if len(e.bodies) != warmPool {
		t.Fatalf("%d pool entries, want %d", len(e.bodies), warmPool)
	}
	homed := make(map[string]int)
	for _, h := range e.home {
		homed[h]++
	}
	remotes := make(map[string]*service.Remote)
	for _, r := range e.cluster.Replicas {
		if got := r.Server().CacheLen(); got != homed[r.URL] || got > cacheSize {
			t.Errorf("replica %s caches %d entries, %d pool entries are homed on it", r.URL, got, homed[r.URL])
		}
		remotes[r.URL] = service.NewRemote(service.RemoteConfig{BaseURL: r.URL, Client: e.hc})
	}
	raw, status, err := walkWarm(nil, e.bodies[0], e.cluster.Gateway().Ring(), remotes)
	if err := sameReply("warm walk", 0, raw, status, err, service.CacheHit, e.captured[0]); err != nil {
		t.Error(err)
	}
}

// TestWalkReproducesServerScore checks the cold layer walk against
// Server.Score byte for byte, with and without spans, on both cold
// workloads.
func TestWalkReproducesServerScore(t *testing.T) {
	cfg := serverConfig()
	for _, w := range workloads {
		if w.hits {
			continue
		}
		bodies, err := buildBodies(w, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeBody(bodies[0])
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := service.New(cfg).Score(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		for _, o := range []*obs.Observer{nil, obs.New(col)} {
			raw, err := walkCold(o, bodies[0], cfg)
			if err := sameReply(w.name+" walk", 0, raw, service.CacheMiss, err, service.CacheMiss, want); err != nil {
				t.Error(err)
			}
		}
		if len(col.Trace().Spans) == 0 {
			t.Errorf("%s: the traced walk recorded no spans", w.name)
		}
	}
}

func TestWalkOrderIsBalancedLatinSquare(t *testing.T) {
	follows := make(map[[2]int]int)
	for c := 0; c < numPaths; c++ {
		seenRow, seenCol := make(map[int]bool), make(map[int]bool)
		for k := 0; k < numPaths; k++ {
			seenRow[walkOrder[c][k]] = true
			seenCol[walkOrder[k][c]] = true
			if k > 0 {
				follows[[2]int{walkOrder[c][k-1], walkOrder[c][k]}]++
			}
		}
		if len(seenRow) != numPaths || len(seenCol) != numPaths {
			t.Fatalf("round or position %d does not hold every path once", c)
		}
	}
	if len(follows) != numPaths*(numPaths-1) {
		t.Fatalf("%d of %d ordered pairs of paths occur", len(follows), numPaths*(numPaths-1))
	}
}

// tailOracle walks the sorted slice up to the first sample that has
// at least q percent of the samples at or below its rank.
func tailOracle(s []time.Duration, q int) (time.Duration, int) {
	n := len(s)
	for k := 1; k <= n; k++ {
		if 100*k >= q*n {
			return s[k-1], n - k
		}
	}
	return 0, 0
}

func TestTailMatchesSortedSliceOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, q := range []int{50, 90, 93, 99} {
		for n := 0; n <= 600; n++ {
			s := make([]time.Duration, n)
			for i := range s {
				s[i] = time.Duration(r.Intn(50)) // ties on purpose
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			v, beyond := tail(s, q)
			wv, wbeyond := tailOracle(s, q)
			if v != wv || beyond != wbeyond {
				t.Fatalf("p%d of %d: tail gives %v with %d beyond, oracle %v with %d", q, n, v, beyond, wv, wbeyond)
			}
		}
	}
}

// TestFoldWalkNestsProgramSpans checks that a root span the program
// opens inside a walk span counts as nested in it.
func TestFoldWalkNestsProgramSpans(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{ID: 1, Name: "request", Start: at(0), Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "service.score", Start: at(10), Dur: 80 * time.Millisecond},
		{ID: 3, Name: "pipeline", Start: at(20), Dur: 50 * time.Millisecond},
		{ID: 4, Parent: 3, Name: "reduce", Start: at(25), Dur: 40 * time.Millisecond},
		{ID: 5, Name: "som.train", Start: at(25), Dur: 40 * time.Millisecond},
		{ID: 6, Name: "kselect", Start: at(75), Dur: 10 * time.Millisecond, Attrs: []obs.Attr{obs.KV("quality_only", true)}},
	}
	w := foldWalk(spans)
	want := map[string]time.Duration{
		"request":       20 * time.Millisecond,
		"service.score": 20 * time.Millisecond,
		"pipeline":      10 * time.Millisecond,
		"reduce":        0,
		"som.train":     40 * time.Millisecond,
		"kselect":       10 * time.Millisecond,
	}
	for name, d := range want {
		if w.self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, w.self[name], d)
		}
	}
	if !w.qualityOnly {
		t.Error("the quality-only kselect span was not noticed")
	}
	if got := layerMetrics["som.place_ms"](w); got != 0 {
		t.Errorf("som.place_ms = %v, want 0", got)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, code []metric, listed []struct{ Name, Unit string }) {
		if len(code) != len(listed) {
			t.Fatalf("%s: the code prints %d metrics, BENCHMARK.json lists %d", kind, len(code), len(listed))
		}
		for i, m := range code {
			if !valid.MatchString(m.name) {
				t.Errorf("%s metric %q is not a valid name", kind, m.name)
			}
			if m.name != listed[i].Name || m.unit != listed[i].Unit {
				t.Errorf("%s metric %d: code %s [%s], BENCHMARK.json %s [%s]",
					kind, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	for m := range layerMetrics {
		if !strings.HasSuffix(m, "_ms") {
			t.Errorf("span metric %q is not in ms", m)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Work), len(workloads))
	}
	for i, w := range workloads {
		if spec.Work[i].Name != w.name || !valid.MatchString(w.name) {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q", i, w.name, spec.Work[i].Name)
		}
	}
}

// TestRunPrintsResult runs the shortest measured run and checks the
// contract of its last line.
func TestRunPrintsResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "cold-casestudy", "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatal(err)
	}
	if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
		t.Fatalf("result %+v", result)
	}
	for _, m := range endToEnd {
		got, ok := result.Metrics[m.name]
		if !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("metric %s: %+v", m.name, got)
		}
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload exits %d, want 2", code)
	}
}

func TestFirstDiffNamesTheField(t *testing.T) {
	a := []byte(`{"workloads":["a"],"recommended_k":2,"means":[{"hgm":1.5}]}`)
	b := []byte(`{"workloads":["a"],"recommended_k":2,"means":[{"hgm":1.5000000000000002}]}`)
	if got := firstDiff(a, b); got != `in field "means"` {
		t.Errorf("firstDiff = %s", got)
	}
}
