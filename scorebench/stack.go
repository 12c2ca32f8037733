package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hmeans/internal/gateway"
	"hmeans/internal/load"
	"hmeans/internal/rng"
	"hmeans/internal/service"
)

// retainServed is how many timed cold responses a run keeps in full,
// from the first timed request on: the recompute check and the traced
// layer walk draw their samples from them.
const retainServed = 32

// serverConfig is what cmd/hmeansd builds from its flag defaults:
// -parallel 1, -max-inflight = CPU count, -queue-depth
// service.DefaultQueueDepth, -cache-size 128, no request timeout and
// the auto linkage algorithm.
func serverConfig() service.Config {
	return service.Config{
		MaxInflight: runtime.NumCPU(),
		QueueDepth:  service.DefaultQueueDepth,
		CacheSize:   cacheSize,
		Parallelism: 1,
	}
}

// env is one set-up: the booted stack, the run's request bodies and,
// on the warm workload, what warm-up served for each pool entry.
type env struct {
	w      workload
	bodies [][]byte
	// url is where the timed traffic goes: the gateway, or the one
	// server.
	url     string
	daemon  *load.Daemon
	cluster *load.Cluster
	hc      *http.Client
	// next is the first body the timed phase sends; the cold bodies
	// before it were spent on warm-up.
	next int

	// Warm workload only, indexed by pool entry.
	keys     [][32]byte
	home     []string
	captured [][]byte
}

// setUp boots the stack, builds the bodies and warms up. Everything it
// does is what setup_s measures.
func setUp(w workload, seed uint64) (*env, error) {
	bodies, err := buildBodies(w, seed, bodyCount(w))
	if err != nil {
		return nil, fmt.Errorf("building request bodies: %w", err)
	}
	e := &env{w: w, bodies: bodies, hc: newHTTPClient(warmClients())}
	if w.gateway {
		c, err := load.StartCluster(2, serverConfig())
		if err != nil {
			return nil, err
		}
		e.cluster, e.url = c, c.URL
	} else {
		d, err := load.StartDaemon(serverConfig())
		if err != nil {
			return nil, err
		}
		e.daemon, e.url = d, d.URL
	}
	if err := e.warmUp(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// warmUp sends the cold warm-up requests, or fills the replicas'
// caches with the warm pool and captures each pool entry's response.
func (e *env) warmUp() error {
	if !e.w.hits {
		for i := 0; i < coldWarmup; i++ {
			rep, err := post(e.hc, e.url, e.bodies[i])
			if err == nil {
				err = rep.check(service.CacheMiss)
			}
			if err != nil {
				return err
			}
		}
		e.next = coldWarmup
		return nil
	}
	keys, err := cacheKeys(e.bodies)
	if err != nil {
		return err
	}
	ring := e.cluster.Gateway().Ring()
	e.keys = keys
	e.home = make([]string, len(keys))
	for i, k := range keys {
		e.home[i] = ring.Home(k)
	}
	e.captured = make([][]byte, len(e.bodies))
	var next atomic.Int64
	errs := make([]error, warmClients())
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(e.bodies); i = int(next.Add(1) - 1) {
				rep, err := post(e.hc, e.url, e.bodies[i])
				if err == nil {
					err = rep.check(service.CacheMiss)
				}
				if err != nil {
					errs[c] = fmt.Errorf("pool entry %d: %w", i, err)
					return
				}
				e.captured[i] = rep.body
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warmClients is how many clients fill the warm pool during set-up:
// as many as the server admits at once, so set-up is short. It is not
// timed as a request phase, so it may use every core.
func warmClients() int { return serverConfig().MaxInflight }

// servers returns every scoring server of the stack.
func (e *env) servers() []*service.Server {
	if e.daemon != nil {
		return []*service.Server{e.daemon.Server()}
	}
	var out []*service.Server
	for _, d := range e.cluster.Replicas {
		out = append(out, d.Server())
	}
	return out
}

// replica returns the daemon serving the given base URL.
func (e *env) replica(url string) (*load.Daemon, error) {
	for _, d := range e.cluster.Replicas {
		if d.URL == url {
			return d, nil
		}
	}
	return nil, fmt.Errorf("no replica at %s", url)
}

// close stops the stack and waits for its servers to exit.
func (e *env) close() error {
	e.hc.CloseIdleConnections()
	if e.cluster != nil {
		return e.cluster.Close()
	}
	if e.daemon != nil {
		return e.daemon.Close()
	}
	return nil
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// reply is one answered request, as the client saw it.
type reply struct {
	status  int
	digest  string
	cache   string
	replica string
	body    []byte
	latency time.Duration
}

// post sends one body to base's /v1/score and reads the whole reply.
// Latency runs from just before the request is sent to the last byte
// of the reply.
func post(hc *http.Client, base string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/score", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:  resp.StatusCode,
		digest:  resp.Header.Get(service.HeaderDigest),
		cache:   resp.Header.Get("X-Hmeans-Cache"),
		replica: resp.Header.Get(gateway.HeaderReplica),
		body:    raw,
		latency: lat,
	}, nil
}

// check applies the per-response checks: status 200, a body that
// matches its digest header, and the cache status of the workload's
// request class.
func (r reply) check(wantCache string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := service.VerifyDigest(r.digest, r.body); err != nil {
		return err
	}
	if r.cache != wantCache {
		return fmt.Errorf("X-Hmeans-Cache %q, want %q", r.cache, wantCache)
	}
	return nil
}

// phase is what one closed-loop phase measured.
type phase struct {
	// lat holds the latency of every successful request.
	lat       []time.Duration
	attempted int
	failed    int
	errs      []error
	elapsed   time.Duration
	cpu       time.Duration
	allocated uint64
	// cache and replicas count X-Hmeans-Cache and X-Hmeans-Replica
	// values over successful requests; offHome counts replies served
	// by another replica than the ring's home for their key.
	cache    map[string]int
	replicas map[string]int
	offHome  int
	// queueMax is the largest Server.Queued seen, when sampled.
	queueMax int64
	// served holds the responses to the first retainServed timed cold
	// bodies, indexed from env.next.
	served [][]byte
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
	for _, err := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err)
		}
	}
	for k, v := range q.cache {
		p.cache[k] += v
	}
	for k, v := range q.replicas {
		p.replicas[k] += v
	}
	p.offHome += q.offHome
}

func newPhase() *phase {
	return &phase{cache: map[string]int{}, replicas: map[string]int{}}
}

// closedLoop runs the timed clients for d: each sends its next
// request only once the previous reply is in. Cold phases cycle
// through the cold pool from env.next, warm phases through the warm
// pool. direct sends each warm request straight to its key's home
// replica instead of the gateway. sampleQueue polls Server.Queued on
// every server.
func (e *env) closedLoop(d time.Duration, direct, sampleQueue bool) *phase {
	total := newPhase()
	if !e.w.hits {
		total.served = make([][]byte, retainServed)
	}
	var stopSampler func() int64
	if sampleQueue {
		stopSampler = sampleQueued(e.servers())
	}
	var next atomic.Int64
	parts := make([]*phase, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = newPhase()
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				i, url, want := n%warmPool, e.url, service.CacheHit
				if !e.w.hits {
					i, want = (e.next+n)%len(e.bodies), service.CacheMiss
				} else if direct {
					url = e.home[i]
				}
				p.attempted++
				rep, err := post(e.hc, url, e.bodies[i])
				if err == nil {
					err = rep.check(want)
				}
				if err == nil && e.w.hits && !bytes.Equal(rep.body, e.captured[i]) {
					err = fmt.Errorf("reply differs from the one served at warm-up %s", firstDiff(rep.body, e.captured[i]))
				}
				if err != nil {
					p.fail(fmt.Errorf("body %d: %w", i, err))
					continue
				}
				p.lat = append(p.lat, rep.latency)
				p.cache[rep.cache]++
				if e.w.gateway && !direct {
					p.replicas[rep.replica]++
					if rep.replica != e.home[i] {
						p.offHome++
					}
				}
				if !e.w.hits && n < retainServed {
					total.served[n] = rep.body
				}
			}
		}(parts[c])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	total.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	if stopSampler != nil {
		total.queueMax = stopSampler()
	}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// sampleQueued polls the servers' queue lengths every millisecond
// until the returned stop function is called; stop waits for the
// poller to exit and returns the largest length seen.
func sampleQueued(servers []*service.Server) func() int64 {
	done := make(chan struct{})
	result := make(chan int64)
	go func() {
		var most int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for _, s := range servers {
				most = max(most, s.Queued())
			}
			select {
			case <-done:
				result <- most
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-result
	}
}

// processCPU is the process's user plus system time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recompute answers sampled served requests again through
// Server.Score on a fresh server and returns one result per sample:
// nil when the fresh response is a miss equal byte for byte to the
// served one. Cold samples come from the retained timed responses,
// warm ones from the pool.
func (e *env) recompute(p *phase, seed uint64, k int) []error {
	fresh := service.New(serverConfig())
	var out []error
	for _, j := range e.sample(p, seed, k) {
		out = append(out, e.rescore(fresh, p, j))
	}
	return out
}

// rescore answers body j on srv and compares the reply with what the
// stack served for it.
func (e *env) rescore(srv *service.Server, p *phase, j int) error {
	req, err := decodeBody(e.bodies[j])
	if err != nil {
		return err
	}
	raw, status, err := srv.Score(context.Background(), req)
	switch {
	case err != nil:
		return fmt.Errorf("body %d: recompute: %w", j, err)
	case status != service.CacheMiss:
		return fmt.Errorf("body %d: recompute on a fresh server was a %s", j, status)
	case !bytes.Equal(raw, e.servedBody(p, j)):
		return fmt.Errorf("body %d: recomputed response differs from the served one %s", j, firstDiff(raw, e.servedBody(p, j)))
	}
	return nil
}

// sample draws up to k distinct body indices, seeded: retained timed
// cold bodies, or warm pool entries.
func (e *env) sample(p *phase, seed uint64, k int) []int {
	var pool []int
	if e.w.hits {
		for i := range e.bodies {
			pool = append(pool, i)
		}
	} else {
		for j, b := range p.served {
			if b != nil {
				pool = append(pool, e.next+j)
			}
		}
	}
	perm := rng.New(seed).Perm(len(pool))
	if k > len(pool) {
		k = len(pool)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// servedBody is the response the stack served for body j: captured at
// warm-up for a pool entry, retained from the timed phase for a cold
// body.
func (e *env) servedBody(p *phase, j int) []byte {
	if e.w.hits {
		return e.captured[j]
	}
	return p.served[j-e.next]
}

// firstDiff names the first top-level response field in which two
// encoded responses differ, for a mismatch report. Equal encodings
// mean equal fields with bit-identical floats: encoding/json writes
// the shortest decimal that reads back as the same float64.
func firstDiff(got, want []byte) string {
	var g, w map[string]json.RawMessage
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return "(not both JSON objects)"
	}
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !bytes.Equal(g[k], w[k]) {
			return fmt.Sprintf("in field %q", k)
		}
	}
	return "(in whitespace only)"
}
