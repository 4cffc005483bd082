package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"overlapsim/internal/apps"
	"overlapsim/internal/overlap"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
	"overlapsim/internal/tracegen"
	"overlapsim/internal/units"
)

// rng is a splitmix64 stream. Every generated input comes from a stream
// named by (seed, domain), so one seed always yields the same inputs and
// the workloads' inputs do not shift when another workload changes.
type rng struct{ s uint64 }

func newRNG(seed uint64, domain string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, domain)
	return &rng{s: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// logUniform draws from [lo,hi] uniformly in log space, restricted to
// the middle tenth of stratum i of n equal log-space strata. Drawing one
// value per stratum keeps a seed's values spread over the whole range,
// and drawing near each stratum's middle keeps the work a grid implies
// the same from seed to seed: contended replay slows down sharply as
// bandwidth falls, and with draws from whole strata a cold sweep's time
// varied by a quarter between seeds.
func (r *rng) logUniform(lo, hi float64, i, n int) float64 {
	u := (float64(i) + 0.45 + 0.1*r.float()) / float64(n)
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

const (
	minBW = 32 * units.MBPerSec
	maxBW = 2 * units.GBPerSec
)

// coldGrid is the sweep-cold grid, which its traced run also runs as a
// campaign: the six paper apps plus one seeded 16-rank randomsparse
// workload, five seeded log-uniform bandwidths in [32MB/s, 2GB/s], chunks
// {4,8}, three mechanisms and bus counts {1,4} — 420 points.
func coldGrid(seed uint64) sweep.Grid {
	r := newRNG(seed, "sweep-cold")
	bws := make([]units.Bandwidth, 5)
	for i := range bws {
		bws[i] = units.Bandwidth(math.Round(r.logUniform(float64(minBW), float64(maxBW), i, len(bws))))
	}
	gen := tracegen.DefaultSpec(tracegen.RandomSparse)
	gen.Ranks = 16
	gen.Seed = 1 + r.next()%1000000
	return sweep.Grid{
		Apps:       append(apps.PaperApps(), gen.String()),
		Bandwidths: bws,
		Chunks:     []int{4, 8},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.LateRecv, overlap.BothMechanisms},
		Buses:      []int{1, 4},
	}
}

// Request kinds of the serve-mixed script.
const (
	kindRepeat = iota // an earlier body again: no replays, no traces
	kindFresh         // a small unseen grid on a pre-traced app
	kindApprox        // a dense 16x8 bandwidth x latency grid, approx on
)

// group is the kinds of one group of a block's requests, in the order
// they are sent; a block is one group per paper app: two fresh requests
// (29% of the block), one approx request (14%), and four repeats (57%),
// two of earlier fresh bodies and two of earlier approx bodies of an app.
// The seed shuffles the apps within each kind and picks which earlier
// bodies repeat. The fixed kind order keeps the slow approx requests
// apart, so how often one waits behind another, which sets the latency
// tail, does not change from seed to seed; the grids themselves do not
// depend on the seed (see nearby).
var group = []int{kindApprox, kindRepeat, kindFresh, kindRepeat, kindRepeat, kindFresh, kindRepeat}

// request is one POST /sweeps of the serve-mixed script.
type request struct {
	kind   int
	approx bool // the body asks for approx (an approx request or its repeat)
	body   []byte
	grid   sweep.Grid
	// orig is the index (in script order, history first) of the request a
	// repeat copies.
	orig int
}

// script generates the serve-mixed requests: a history that set-up sends,
// then blocks generated on demand. Block b depends only on the seed and
// on the blocks before it.
type script struct {
	seed uint64
	hist int
	reqs []request
	// Indices of the non-repeat requests so far, by app and approx.
	origs map[origKey][]int
}

type origKey struct {
	app    string
	approx bool
}

func newScript(seed uint64) (*script, error) {
	s := &script{seed: seed, origs: map[origKey][]int{}}
	for _, app := range apps.PaperApps() {
		for _, kind := range []int{kindFresh, kindApprox} {
			if err := s.add(kind, app); err != nil {
				return nil, err
			}
		}
	}
	s.hist = len(s.reqs)
	return s, nil
}

// history is the number of requests set-up sends: one fresh and one
// approx request per paper app.
func (s *script) history() int { return s.hist }

// blockSize is the number of requests in a block.
func blockSize() int { return len(group) * len(apps.PaperApps()) }

// block returns the requests of block b (generating blocks up to b).
func (s *script) block(b int) ([]request, error) {
	for len(s.reqs) < s.history()+(b+1)*blockSize() {
		nb := (len(s.reqs) - s.history()) / blockSize()
		r := newRNG(s.seed, fmt.Sprintf("serve-block-%d", nb))
		type slot struct {
			app    string
			approx bool // for a repeat: copy an approx body
		}
		byKind := map[int][]slot{}
		for _, app := range apps.PaperApps() {
			repeats := 0
			for _, k := range group {
				byKind[k] = append(byKind[k], slot{app: app, approx: k == kindRepeat && repeats%2 == 1})
				if k == kindRepeat {
					repeats++
				}
			}
		}
		for _, k := range []int{kindRepeat, kindFresh, kindApprox} {
			shuffle(r, byKind[k])
		}
		// Repeats copy requests of earlier blocks (or the history) only,
		// which have all completed when a block starts.
		earlier := map[origKey][]int{}
		for k, v := range s.origs {
			earlier[k] = append([]int(nil), v...)
		}
		for i := 0; i < blockSize(); i++ {
			k := group[i%len(group)]
			sl := byKind[k][0]
			byKind[k] = byKind[k][1:]
			if k == kindRepeat {
				from := earlier[origKey{sl.app, sl.approx}]
				o := from[r.intn(len(from))]
				s.reqs = append(s.reqs, request{kind: kindRepeat, approx: s.reqs[o].approx, body: s.reqs[o].body, grid: s.reqs[o].grid, orig: o})
				continue
			}
			if err := s.add(k, sl.app); err != nil {
				return nil, err
			}
		}
	}
	lo := s.history() + b*blockSize()
	return s.reqs[lo : lo+blockSize()], nil
}

// add appends a fresh or approx request for app: the app's n-th grid of
// that kind.
func (s *script) add(kind int, app string) error {
	k := origKey{app, kind == kindApprox}
	n := len(s.origs[k])
	req := serve.SweepRequest{Apps: []string{app}}
	switch kind {
	case kindFresh:
		req.Chunks = []int{4, 8}
		req.Mechanisms = []string{"both", "earlysend"}
		for _, bw := range []float64{64, 512} {
			req.Bandwidths = append(req.Bandwidths, fmt.Sprintf("%.0fB/s", nearby(bw*float64(units.MBPerSec), n)))
		}
	case kindApprox:
		// 16 log-spaced bandwidths over a 16x range and 8 latencies from
		// 5us to 40us.
		lo := nearby(256*float64(units.MBPerSec), n)
		for i := 0; i < 16; i++ {
			req.Bandwidths = append(req.Bandwidths, fmt.Sprintf("%.0fB/s", lo*math.Pow(16, float64(i)/15)))
		}
		for i := 0; i < 8; i++ {
			req.Latencies = append(req.Latencies, fmt.Sprintf("%dns", 5000*(i+1)))
		}
		on := true
		req.Approx = &on
		req.ApproxMaxErr = sweep.DefaultApproxMaxErr
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	g, err := req.Grid()
	if err != nil {
		return fmt.Errorf("generated request %s: %w", body, err)
	}
	s.origs[k] = append(s.origs[k], len(s.reqs))
	s.reqs = append(s.reqs, request{kind: kind, approx: kind == kindApprox, body: body, grid: g, orig: len(s.reqs)})
	return nil
}

// nearby returns the n-th bandwidth, in B/s, of a sequence that moves
// through [bw, 1.02*bw) along a golden-ratio sequence. Each of an app's
// grids is then unseen by the replay store, while its grids stay so
// alike that the work of each (for an approx grid, its anchors and
// demotions) is the same from grid to grid. With seeded axes it was not,
// and the slowest requests, and so the latency tail, moved from seed to
// seed.
func nearby(bw float64, n int) float64 {
	return bw * (1 + 0.02*math.Mod(float64(n)*0.6180339887498949, 1))
}
