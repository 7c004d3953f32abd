package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q·n samples at or below it. +Inf
// entries (failed frames) sort last, so a failure counts as missing
// every latency limit. It sorts xs in place and returns NaN when xs is
// empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// calmest returns, in slice order, the indices of the k slices in
// which the host stole the smallest share of CPU time; among equal
// shares the earlier slice wins. Host steal is not the system under
// test; when a neighbour takes CPU time, the most disturbed slices are
// set aside.
func calmest(steal []float64, k int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:min(k, len(idx))]
	sort.Ints(idx)
	return idx
}

// calmCount is how many slices ran with a steal share of at most
// calmSteal.
func calmCount(steal []float64) int {
	n := 0
	for _, s := range steal {
		if s <= calmSteal {
			n++
		}
	}
	return n
}

// span is one timed interval of a frame's journey through a layer.
type span struct {
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is the part of parent's interval that none of its children
// cover: the parent's duration minus the union of the children's
// intervals clipped to the parent. Overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
