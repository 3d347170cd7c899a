package main

import (
	"encoding/binary"
	"hash/fnv"
	"hash/maphash"
	"math"
	"math/rand/v2"
)

// sineTable is one period of a sine, sampled so a smooth field costs a
// table lookup per element rather than a math.Sin call.
var sineTable = func() [4096]float64 {
	var t [4096]float64
	for i := range t {
		t[i] = math.Sin(2 * math.Pi * float64(i) / float64(len(t)))
	}
	return t
}()

const sineMask = len(sineTable) - 1

// fieldParams shape one smooth grid field: an offset plus two sines,
// the first drifting with the iteration.
type fieldParams struct {
	particles bool // random particle data instead of a smooth field
	base      float64
	amp1      float64
	amp2      float64
	k1, k2    int
	phase     int
	drift     int
}

// patch is one iteration's change to one variable: a contiguous window
// of new bytes at off.
type patch struct {
	off  int
	data []byte
}

// inputs is everything the closed loop writes in one episode, generated
// from the seed before timing starts. Variable v of client c is slot
// c*vars+v; iteration 0 writes base, and iteration i > 0 first applies
// patches[i-1] to the previous iteration's bytes.
type inputs struct {
	names   []string
	base    [][]byte
	patches [][]patch
}

// genInputs builds an episode's inputs: every fourth variable is random
// particle data (incompressible), the rest smooth float64 fields; each
// iteration rewrites a seeded contiguous quarter of every variable.
func genInputs(s *runtimeSpec, seed uint64) *inputs {
	r := rand.New(rand.NewPCG(seed, seedSalt(s.name)))
	clients := s.nodes * s.clients
	elems := s.varBytes / 8
	win := elems / 4
	in := &inputs{names: s.varNames()}
	params := make([]fieldParams, clients*s.vars)
	in.base = make([][]byte, clients*s.vars)
	baseSlab := make([]byte, clients*s.vars*s.varBytes)
	for slot := range params {
		p := fieldParams{
			particles: slot%s.vars%4 == 3,
			base:      200 + 100*r.Float64(),
			amp1:      1 + 20*r.Float64(),
			amp2:      0.5 + 5*r.Float64(),
			k1:        1 + r.IntN(4),
			k2:        5 + r.IntN(12),
			phase:     r.IntN(len(sineTable)),
			drift:     1 + r.IntN(64),
		}
		params[slot] = p
		b := baseSlab[slot*s.varBytes : (slot+1)*s.varBytes]
		fill(b, 0, 0, p, r)
		in.base[slot] = b
	}
	in.patches = make([][]patch, s.iterations-1)
	slab := make([]byte, (s.iterations-1)*len(params)*win*8)
	for i := range in.patches {
		ps := make([]patch, len(params))
		for slot, p := range params {
			first := r.IntN(elems - win + 1)
			data := slab[: win*8 : win*8]
			slab = slab[win*8:]
			fill(data, first, i+1, p, r)
			ps[slot] = patch{off: first * 8, data: data}
		}
		in.patches[i] = ps
	}
	return in
}

// fill writes elements [first, first+len(b)/8) of a variable's value at
// iteration it into b.
func fill(b []byte, first, it int, p fieldParams, r *rand.Rand) {
	for j := 0; j < len(b)/8; j++ {
		var v float64
		if p.particles {
			v = 1000 * r.Float64()
		} else {
			i := first + j
			v = p.base + p.amp1*sineTable[(i*p.k1+it*p.drift+p.phase)&sineMask] +
				p.amp2*sineTable[(i*p.k2+p.phase)&sineMask]
		}
		binary.LittleEndian.PutUint64(b[j*8:], math.Float64bits(v))
	}
}

// seedSalt separates the workloads' random streams under one seed.
func seedSalt(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// hashSeed keys every block hash of one process; hashes are only
// compared within the process that recorded them.
var hashSeed = maphash.MakeSeed()

func blockHash(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }
