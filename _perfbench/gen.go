package main

import (
	"math"

	"segidx"
)

// Inputs are generated here, not by the repository's workload package, so
// a change to the program cannot change what the benchmark feeds it. The
// distributions are the paper's (Section 5): domain [0, 100000]², interval
// lengths exponential with β = 2000, exponential Y values with β = 7000,
// and search rectangles of area 10⁶ swept over the query aspect ratios.

const (
	domLo     = 0.0
	domHi     = 100000.0
	lenBeta   = 2000.0
	valueBeta = 7000.0
	queryArea = 1e6
	// recordBytes is the user payload of one record or one delete request:
	// two float64 bounds per dimension plus the 8-byte ID.
	recordBytes = 2*2*8 + 8
)

// qars are the paper's query aspect ratios (horizontal / vertical).
var qars = []float64{0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 1, 2, 5, 10, 100, 1000, 10000}

// rng is splitmix64: a stream fixed for a seed on every platform and Go
// release, unlike math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + r.float()*(hi-lo) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential value with mean beta, redrawn while at or
// above max (max <= 0 means unbounded).
func (r *rng) exp(beta, max float64) float64 {
	for {
		v := -beta * math.Log(1-r.float())
		if max <= 0 || v < max {
			return v
		}
	}
}

func clamp(v float64) float64 { return math.Min(math.Max(v, domLo), domHi) }

// segment is a horizontal line segment at y, centred at cx, clipped to the
// domain: the paper's interval record.
func segment(y, cx, length float64) segidx.Rect {
	return segidx.Box(clamp(cx-length/2), y, clamp(cx+length/2), y)
}

// genI3 draws the paper's I3 dataset: uniform Y, exponential lengths.
func genI3(r *rng) segidx.Rect {
	return segment(r.uniform(domLo, domHi), r.uniform(domLo, domHi), r.exp(lenBeta, 0))
}

// genI4 draws the paper's I4 dataset: exponential Y, exponential lengths.
func genI4(r *rng) segidx.Rect {
	return segment(r.exp(valueBeta, domHi), r.uniform(domLo, domHi), r.exp(lenBeta, 0))
}

// qarQuery draws a search rectangle of area 10⁶ with the given aspect
// ratio, centred uniformly over [xlo, xhi) × [domLo, domHi).
func qarQuery(r *rng, qar, xlo, xhi float64) segidx.Rect {
	cx, cy := r.uniform(xlo, xhi), r.uniform(domLo, domHi)
	w, h := math.Sqrt(queryArea*qar), math.Sqrt(queryArea/qar)
	return segidx.Box(cx-w/2, cy-h/2, cx+w/2, cy+h/2)
}

// slice is the full-height query at x: every record whose interval in
// dimension 0 contains x, whatever its Y.
func slice(x float64) segidx.Rect { return segidx.Box(x, domLo, x, domHi) }
