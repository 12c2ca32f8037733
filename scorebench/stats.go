package main

import (
	"slices"
	"time"

	"hmeans/internal/obs"
)

const (
	// tailPct is the percentile tail_ms reads. It is fixed, so a
	// faster program, which collects more samples, is read at the same
	// percentile as a slower one. A 30-second run of today's code
	// leaves well over tailBeyond samples above it on every workload.
	tailPct = 90
	// tailBeyond is how many samples should lie above the tail
	// percentile; a run with fewer says so.
	tailBeyond = 10
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of v, 0 when v is empty.
func median[T time.Duration | float64](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pairedMedian returns the median over i of f(a[i], b[i]), pairing
// two measurements of the same request so that the work one request
// needs more than another cancels out.
func pairedMedian(a, b []time.Duration, f func(x, y time.Duration) float64) float64 {
	v := make([]float64, min(len(a), len(b)))
	for i := range v {
		v[i] = f(a[i], b[i])
	}
	return median(v)
}

// tail returns the nearest-rank q-th percentile of the ascending
// slice s, s[ceil(q·n/100)−1], and how many samples rank above it. It
// is 0 and 0 for an empty slice.
func tail(s []time.Duration, q int) (v time.Duration, beyond int) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	rank := max((q*n+99)/100, 1)
	return s[rank-1], n - rank
}

// nest returns the parent of every span: its own Parent link, or, for
// a root span the program opened inside a walk span (pipeline,
// som.train, cluster.linkage, kselect, cut and means), the
// innermost span whose time range holds it. A walk runs on one
// goroutine, so holding in time is nesting. A span that holds another
// of the same length is the outer one when it was opened first.
func nest(spans []obs.SpanData) map[uint64]uint64 {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			parent[s.ID] = s.Parent
			continue
		}
		end := s.Start.Add(s.Dur)
		var best *obs.SpanData
		for i := range spans {
			p := &spans[i]
			if p.ID == s.ID || p.Start.After(s.Start) || p.Start.Add(p.Dur).Before(end) {
				continue
			}
			if p.Dur == s.Dur && p.ID > s.ID {
				continue
			}
			if best == nil || p.Dur < best.Dur || (p.Dur == best.Dur && p.ID > best.ID) {
				best = p
			}
		}
		if best != nil {
			parent[s.ID] = best.ID
		}
	}
	return parent
}

// overWalks returns the median over the traced walks of f.
func overWalks(walks []walkTimes, f func(walkTimes) time.Duration) time.Duration {
	v := make([]time.Duration, len(walks))
	for i, w := range walks {
		v[i] = f(w)
	}
	return median(v)
}

// walkTimes is one traced walk folded by span name.
type walkTimes struct {
	// incl is the summed duration of the walk's spans of each name,
	// self the same minus the spans nested in them.
	incl, self map[string]time.Duration
	// qualityOnly marks a walk whose k selection was the quality
	// sweep alone (Pipeline.RecommendKQuality).
	qualityOnly bool
}

// foldWalk folds the spans of one traced walk.
func foldWalk(spans []obs.SpanData) walkTimes {
	w := walkTimes{incl: map[string]time.Duration{}, self: map[string]time.Duration{}}
	parent := nest(spans)
	names := make(map[uint64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for _, s := range spans {
		w.incl[s.Name] += s.Dur
		w.self[s.Name] += s.Dur
		if p, ok := parent[s.ID]; ok {
			w.self[names[p]] -= s.Dur
		}
		if s.Name == "kselect" && spanAttr(s, "quality_only") == true {
			w.qualityOnly = true
		}
	}
	return w
}

// spanAttr returns the value of the span's attribute key, nil when it
// has none.
func spanAttr(s obs.SpanData, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}
