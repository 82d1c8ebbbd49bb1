package main

import (
	"math"

	"repro/internal/tuple"
)

// Inputs are a pure function of (workload, seed, seconds): the Poisson
// schedules of the paced phases, the even spacing of the unpaced phase and
// every attribute value are derived from a counter-based hash, so a run
// never depends on goroutine timing for what it sends. Timestamps are
// offsets from each phase's start on the run clock.

// mix is splitmix64's finaliser: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// key derives the hash input for one (seed, stream, purpose, index) draw.
func key(seed uint64, stream, purpose int, i uint64) uint64 {
	return mix(mix(seed^uint64(stream)<<48^uint64(purpose)<<40) ^ i)
}

// Draw purposes: each stream has independent sequences per purpose.
const (
	drawArrival = iota // paced-phase inter-arrival gaps (phase index added)
	drawValue   = 8    // attribute values (column index added)
)

// idBits is where the stream index sits in a tuple's id column: the id is
// stream<<idBits | seq, unique across a run and stable across runs.
const idBits = 40

func tupleID(stream int, seq uint64) int64 { return int64(stream)<<idBits | int64(seq) }

// schedule returns the due offsets (µs from the phase start) of a Poisson
// stream at rate tuples/s over dur µs (at most ~35 minutes).
func schedule(seed uint64, stream, phase int, rate float64, dur int64) []int32 {
	if rate <= 0 {
		return nil
	}
	meanGap := 1e6 / rate
	out := make([]int32, 0, int(rate*float64(dur)/1e6*1.1)+16)
	if phase == 0 {
		// Every stream opens the run with a tuple: until an external
		// stream has sent one, its source can promise no bound, and the
		// first measured results would wait on that instead of on ETS.
		out = append(out, 0)
	}
	var t float64
	for i := uint64(0); ; i++ {
		u := unit(key(seed, stream, drawArrival+phase, i))
		t += -math.Log(1-u) * meanGap
		if int64(t) >= dur {
			return out
		}
		out = append(out, int32(t))
	}
}

// zipfKey draws a key in [1, n] with P(k) ∝ k^-s (0 < s < 1) by inverting
// the continuous power law — cheap, stateless, and close to Zipf at these
// key-space sizes.
func zipfKey(u float64, n int64, s float64) int64 {
	a := 1 - s
	hi := math.Pow(float64(n)+1, a)
	k := int64(math.Pow(1+u*(hi-1), 1/a))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// words is the fixed vocabulary string attributes draw from, so the client
// does not allocate a fresh string per cell.
var words = func() []string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	out := make([]string, 1024)
	for i := range out {
		h := mix(uint64(i) ^ 0x5eed)
		b := make([]byte, 8+h%9)
		for j := range b {
			h = mix(h)
			b[j] = alpha[h%uint64(len(alpha))]
		}
		out[i] = string(b)
	}
	return out
}()

// fill writes the attribute values of tuple seq of the given stream into
// vals (len = schema arity); column 0 is always the tuple id.
func (w *workload) fill(seed uint64, stream int, seq uint64, vals []tuple.Value) {
	vals[0] = tuple.Int(tupleID(stream, seq))
	for c := 1; c < len(vals); c++ {
		h := key(seed, stream, drawValue+c, seq)
		switch w.cols[c] {
		case colKey:
			vals[c] = tuple.Int(zipfKey(unit(h), w.keys, w.zipfS))
		case colSel:
			vals[c] = tuple.Int(int64(h % 1000))
		case colInt:
			vals[c] = tuple.Int(int64(h % 1_000_000))
		case colFloat:
			vals[c] = tuple.Float(float64(h%1_000_000) / 64)
		case colString:
			vals[c] = tuple.String_(words[h%uint64(len(words))])
		}
	}
}

// inputs is the load one assembly carries: per stream, the paced phases'
// due offsets and the unpaced phase's tuple count.
type inputs struct {
	paced   [][nPaced][]int32 // [stream][phase] offsets µs from phase start
	unpaced []int             // [stream] tuples in the unpaced phase
}

// generate derives the paced load points' inputs.
func (w *workload) generate(seed uint64, phaseUs [nPaced]int64) *inputs {
	in := &inputs{paced: make([][nPaced][]int32, len(w.streams)), unpaced: make([]int, len(w.streams))}
	for s, st := range w.streams {
		for p := 0; p < nPaced; p++ {
			in.paced[s][p] = schedule(seed, s, p, st.rate[p], phaseUs[p])
		}
	}
	return in
}

// flood is one unpaced flood's inputs; the values still come from the seed.
func (w *workload) flood() *inputs {
	in := &inputs{paced: make([][nPaced][]int32, len(w.streams)), unpaced: make([]int, len(w.streams))}
	for s, st := range w.streams {
		in.unpaced[s] = st.unpaced
	}
	return in
}

// at is the timestamp of tuple seq of stream s: lo tuples first, then hi,
// then unpaced, each an offset from its phase's start instant.
func (w *workload) at(in *inputs, s int, seq int, starts [nPaced + 1]int64) int64 {
	for p := 0; p < nPaced; p++ {
		offs := in.paced[s][p]
		if seq < len(offs) {
			return starts[p] + int64(offs[seq])
		}
		seq -= len(offs)
	}
	return starts[nPaced] + int64(float64(seq)*1e6/w.streams[s].upRate)
}

// total reports the tuples stream s sends over the whole run.
func (in *inputs) total(s int) int {
	n := in.unpaced[s]
	for _, offs := range in.paced[s] {
		n += len(offs)
	}
	return n
}
