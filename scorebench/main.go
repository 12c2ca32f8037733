// Command scorebench is the end-to-end benchmark of the scoring stack.
// It boots one hmeansd server, or a gateway over two of them, in its
// own process through load.StartDaemon / load.StartCluster with
// cmd/hmeansd's flag defaults, sends closed-loop POST /v1/score
// traffic built from the workload seed, checks every reply, and prints
// each metric by name and unit. The last line of its output is one
// JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics of a traced layer walk with -trace 1.
//
// Usage, from the repository root:
//
//	bash scorebench/run.sh --workload cold-casestudy --seed 1 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named figure of a run.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the stack sees; a run with
// -trace 0 prints every one. BENCHMARK.json lists the same names with
// their bounds.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KB"},
	{"success_share", "share"},
}

// perLayer are the traced run's metrics; README.md gives the
// end-to-end metric and workload each one should move. A layer the
// workload never reaches reads 0.
var perLayer = []metric{
	{"som.train_ms", "ms"},
	{"som.place_ms", "ms"},
	{"som.steps", "count"},
	{"som.units", "count"},
	{"cluster.quality_sweep_ms", "ms"},
	{"cluster.dendrogram_ms", "ms"},
	{"vecmath.condensed_ms", "ms"},
	{"core.kselect_ms", "ms"},
	{"core.detect_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"chars.preprocess_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"service.validate_ms", "ms"},
	{"service.cachekey_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.digest_ms", "ms"},
	{"service.request_kb", "KB"},
	{"service.response_kb", "KB"},
	{"service.score_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.hit_share", "share"},
	{"service.coalesced_share", "share"},
	{"service.queue_max", "count"},
	{"gateway.hop_ms", "ms"},
	{"gateway.forward_ms", "ms"},
	{"gateway.ring_us", "us"},
	{"gateway.replica_share_max", "share"},
	{"gateway.off_home_share", "share"},
	{"trace.overhead_ms", "ms"},
	{"walk.coverage", "ratio"},
}

// outcome is what a run reports: its metric values and the tally of
// requests and checks. problems holds the first few failures.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []error
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one check, failed when err is not nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 10 {
			o.problems = append(o.problems, err)
		}
	}
}

// addPhase counts a phase's requests and failures.
func (o *outcome) addPhase(p *phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, err := range p.errs {
		if len(o.problems) < 10 {
			o.problems = append(o.problems, err)
		}
	}
}

// run parses the flags, runs the workload and prints the result. It
// returns 0 when every check passed, 1 when a check failed or the run
// could not complete, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scorebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the request bodies are a pure function of (workload, seed)")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced layer walk and prints the per-layer metrics")
	outDir := fs.String("out", ".bench_build/scorebench", "directory the traced run writes its JSONL trace to")
	reportBin := fs.String("report", "", "cmd/report binary that validates the trace (-trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "scorebench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if *trace == 1 && *reportBin == "" {
		fmt.Fprintln(stderr, "scorebench: --trace 1 needs --report, the cmd/report binary")
		return 2
	}
	fmt.Fprintf(stdout, "scorebench workload=%s seed=%d seconds=%d trace=%d clients=%d cpus=%d %s\n",
		w.name, *seed, *seconds, *trace, clients, runtime.NumCPU(), runtime.Version())

	var out *outcome
	var err error
	metrics := endToEnd
	if *trace == 1 {
		metrics = perLayer
		out, err = tracedRun(stdout, w, *seed, *seconds, *outDir, *reportBin)
	} else {
		out, err = measuredRun(stdout, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "scorebench: %v\n", err)
		return 1
	}
	for _, err := range out.problems {
		fmt.Fprintf(stdout, "FAILED CHECK: %v\n", err)
	}
	failed := out.failed
	fmt.Fprintf(stdout, "%s/error_share %g (%d of %d requests and checks)\n",
		w.name, float64(failed)/float64(out.attempted), failed, out.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: out.attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		result.Metrics[m.name] = value{out.values[m.name], m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "scorebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

const (
	// setupRepeats is how many times a measured run sets up; setup_s
	// is the median.
	setupRepeats = 3
	// recomputeSamples served requests per measured run are answered
	// again on a fresh server.
	recomputeSamples = 3
)

// measuredRun sets up setupRepeats times, keeps the last set-up,
// runs the timed phase on it and checks a sample of its replies on a
// fresh server.
func measuredRun(stdout io.Writer, w workload, seed uint64, seconds int) (*outcome, error) {
	var setups []time.Duration
	var e *env
	for r := 0; r < setupRepeats; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", r, err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	runtime.GC()
	p := e.closedLoop(time.Duration(seconds)*time.Second, false, false)
	checks := e.recompute(p, seed, recomputeSamples)
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}

	out := newOutcome()
	out.addPhase(p)
	for _, err := range checks {
		out.check(err)
	}
	if len(p.lat) == 0 {
		return out, nil
	}
	sorted := slices.Clone(p.lat)
	slices.Sort(sorted)
	v := out.values
	v["setup_s"] = median(setups).Seconds()
	v["p50_ms"] = ms(median(p.lat))
	tv, beyond := tail(sorted, tailPct)
	v["tail_ms"] = ms(tv)
	v["throughput_rps"] = float64(len(p.lat)) / p.elapsed.Seconds()
	v["cpu_ms_per_req"] = ms(p.cpu) / float64(p.attempted)
	v["alloc_kb_per_req"] = float64(p.allocated) / 1024 / float64(p.attempted)
	v["success_share"] = float64(out.attempted-out.failed) / float64(out.attempted)

	fmt.Fprintf(stdout, "set-up runs (s):")
	for _, s := range setups {
		fmt.Fprintf(stdout, " %.4f", s.Seconds())
	}
	fmt.Fprintf(stdout, "\ntimed phase: %d requests in %.2f s, %d recomputed on a fresh server\n",
		p.attempted, p.elapsed.Seconds(), len(checks))
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%s/%s %.4f %s", w.name, m.name, v[m.name], m.unit)
		if m.name == "tail_ms" {
			fmt.Fprintf(stdout, " (p%d of %d samples, %d beyond it)", tailPct, len(sorted), beyond)
			if beyond < tailBeyond {
				fmt.Fprintf(stdout, " NOTE: fewer than %d samples beyond the percentile; run longer for a steady tail", tailBeyond)
			}
		}
		fmt.Fprintln(stdout)
	}
	return out, nil
}
