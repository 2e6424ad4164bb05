package main

// Workload inputs. Everything the program sees — the tensors, the
// snapshot schedule, the event batches and the query schedule — is
// generated here from the run's seed with the benchmark's own generator,
// so a change to the repository's dataset code cannot change what the
// benchmark measures.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"dismastd"
)

// shape describes one synthetic third-order ratings tensor: mode sizes,
// how many entries to draw, and a per-mode Zipf exponent (0 = uniform).
// Popular indices are scattered through each mode by a permutation, as
// in real review data, so growth fronts cut through the heavy slices.
type shape struct {
	name string
	dims [3]int
	nnz  int
	skew [3]float64
}

var (
	// netflixShape: small modes, many entries — the sweep is dominated
	// by the MTTKRP over the entries.
	netflixShape = shape{name: "netflix", dims: [3]int{4800, 180, 128}, nnz: 1_000_000, skew: [3]float64{0.5, 0.5, 0.3}}
	// bookShape: large, Zipf-skewed modes with few entries per row — the
	// sweep is dominated by row solves, Gram reductions and imbalance.
	bookShape = shape{name: "book", dims: [3]int{150_000, 28_000, 128}, nnz: 500_000, skew: [3]float64{1.1, 1.05, 0.6}}
	// serveShape: a Book-shaped tensor whose 75% snapshot (about 3e5
	// entries) warms the server and whose growth region feeds the
	// event batches.
	serveShape = shape{name: "book-serve", dims: [3]int{150_000, 28_000, 128}, nnz: 760_000, skew: [3]float64{1.1, 1.05, 0.6}}
)

// streamFractions is the paper's Fig. 5 growth schedule: snapshot i
// holds every entry inside fractions[i] of each full mode size.
var streamFractions = []float64{0.75, 0.80, 0.85, 0.90, 0.95, 1.00}

// rng returns the generator for one named input stream of a seed, so
// adding a stream never shifts the draws of another.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// zipf draws ranks in [0, n) with P(i) ∝ 1/(i+1)^alpha by inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(alpha float64, n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// genTensor draws a shape's full tensor. Each entry is a distinct cell
// (duplicate draws are redrawn, a bounded number of times) holding a
// 1..5 star rating.
//
// Which indices are popular is part of the workload, not of the seed:
// the per-mode permutations come from a fixed generator, and the seed
// draws the entries and their values from that fixed distribution. So
// seeds differ by sampling noise only, and a metric's spread across
// seeds measures the program rather than how the heavy slices happened
// to land against the growth fronts.
func genTensor(s shape, seed uint64) *dismastd.Tensor {
	r := rng(seed, 1)
	layout := rng(0, 1)
	var draw [3]func() int
	for m, d := range s.dims {
		if s.skew[m] <= 0 {
			draw[m] = func() int { return r.IntN(d) }
			continue
		}
		z := newZipf(s.skew[m], d)
		perm := layout.Perm(d)
		draw[m] = func() int { return perm[z.draw(r)] }
	}
	b := dismastd.NewBuilder(s.dims[:])
	seen := make(map[uint64]struct{}, s.nnz)
	idx := make([]int, 3)
	for e := 0; e < s.nnz; e++ {
		for try := 0; try < 16; try++ {
			for m := range idx {
				idx[m] = draw[m]()
			}
			key := uint64(idx[0])<<40 | uint64(idx[1])<<20 | uint64(idx[2])
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			b.Append(idx, float64(1+r.IntN(5)))
			break
		}
	}
	return b.Build()
}

// streamInputs is a stream workload's input: the nested snapshots of
// the growth schedule over one full tensor. A snapshot is cut from the
// full tensor when it is fed, as a user holds only the data and the
// snapshot at hand, so the snapshots do not sit in the heap the program
// runs in.
type streamInputs struct {
	seq  *dismastd.Sequence
	hash string
}

func genStream(s shape, seed uint64) (*streamInputs, error) {
	full := genTensor(s, seed)
	seq, err := dismastd.NewSequence(full, growthDims(full.Dims))
	if err != nil {
		return nil, fmt.Errorf("stream schedule: %w", err)
	}
	in := &streamInputs{seq: seq}
	h := newInputHash()
	for i := 0; i < seq.Len(); i++ {
		h.tensor(seq.Snapshot(i))
	}
	in.hash = h.sum()
	return in, nil
}

// growthDims returns the mode sizes of each snapshot of the schedule.
func growthDims(full []int) [][]int {
	steps := make([][]int, len(streamFractions))
	for i, f := range streamFractions {
		steps[i] = make([]int, len(full))
		for m, d := range full {
			steps[i][m] = min(d, int(math.Ceil(float64(d)*f)))
		}
	}
	return steps
}

// serveInputs is the serve-mixed input: the warm-up snapshot, the
// growth-region event batches with their due times, and the query
// schedule.
type serveInputs struct {
	warm      *dismastd.Tensor   // snapshot 0, posted before the main phase
	batches   [][]dismastd.Event // growth-region events, one /ingest each
	ingestDue []time.Duration    // due time of batch i from the main phase start
	queries   []query
	hash      string
}

// query is one scheduled read: a /predict at a cell or a /topk over
// mode 1 with the other coordinates fixed.
type query struct {
	due  time.Duration
	topk bool
	at   [3]int
}

// serveLoad is the offered load of the serve-mixed main phase.
type serveLoad struct {
	batch       int     // events per /ingest
	eventsPerS  float64 // offered event rate
	queriesPerS float64 // offered query rate: one /topk in 60, the rest /predict
}

// defaultLoad keeps the ingest connection busy about 30% of the time on
// a 2-core host (a 0.6–0.9 s sweep every 4096 events, a ~10 ms model
// clone per /ingest), so a slower host slows each request in proportion
// rather than letting a backlog build: at twice this rate the backlog
// grew in some runs and the /ingest median swung fivefold.
var defaultLoad = serveLoad{batch: 100, eventsPerS: 1000, queriesPerS: 200}

func genServe(s shape, seed uint64, load serveLoad, seconds float64) (*serveInputs, error) {
	full := genTensor(s, seed)
	steps := growthDims(full.Dims)
	seq, err := dismastd.NewSequence(full, steps[:1:1])
	if err != nil {
		return nil, fmt.Errorf("serve schedule: %w", err)
	}
	in := &serveInputs{warm: seq.Snapshot(0)}
	warmDims := in.warm.Dims

	// The growth region in arrival order: an entry arrives when the
	// growing box first covers it, so every mode grows a little with
	// each batch, as in the multi-aspect streaming model. Entries the
	// box reaches together arrive in a seeded order.
	type arrival struct {
		at float64 // the smallest box fraction covering the entry
		ev dismastd.Event
	}
	var growth []arrival
	idx := make([]int, 3)
	for e := 0; e < full.NNZ(); e++ {
		full.Coord(e, idx)
		if idx[0] < warmDims[0] && idx[1] < warmDims[1] && idx[2] < warmDims[2] {
			continue
		}
		at := 0.0
		for m, c := range idx {
			at = math.Max(at, float64(c+1)/float64(full.Dims[m]))
		}
		growth = append(growth, arrival{at, dismastd.Event{Coords: append([]int(nil), idx...), Value: full.Val(e)}})
	}
	r := rng(seed, 2)
	r.Shuffle(len(growth), func(i, j int) { growth[i], growth[j] = growth[j], growth[i] })
	sort.SliceStable(growth, func(i, j int) bool { return growth[i].at < growth[j].at })

	nBatches := int(math.Ceil(seconds * load.eventsPerS / float64(load.batch)))
	if nBatches*load.batch > len(growth) {
		return nil, fmt.Errorf("serve schedule: %d s at %.0f events/s needs %d growth events, the tensor has %d",
			int(seconds), load.eventsPerS, nBatches*load.batch, len(growth))
	}
	interval := time.Duration(float64(time.Second) * float64(load.batch) / load.eventsPerS)
	for i := 0; i < nBatches; i++ {
		batch := make([]dismastd.Event, load.batch)
		for k := range batch {
			batch[k] = growth[i*load.batch+k].ev
		}
		in.batches = append(in.batches, batch)
		in.ingestDue = append(in.ingestDue, time.Duration(i)*interval)
	}

	// Queries address cells of the warm snapshot, so every one is in
	// range of the model the server publishes at any point. One in 60
	// is a /topk. A topk costs about 25 times a predict, so the mix sets
	// where the percentiles fall: the median among predicts, and p99
	// inside the topks that do not overlap a sweep, rather than among the
	// few that do, whose latency swung from run to run.
	nQueries := int(math.Ceil(seconds * load.queriesPerS))
	qInterval := time.Duration(float64(time.Second) / load.queriesPerS)
	for j := 0; j < nQueries; j++ {
		in.warm.Coord(r.IntN(in.warm.NNZ()), idx)
		in.queries = append(in.queries, query{due: time.Duration(j) * qInterval, topk: j%60 == 59, at: [3]int{idx[0], idx[1], idx[2]}})
	}

	h := newInputHash()
	h.tensor(in.warm)
	for i, b := range in.batches {
		h.int(int64(in.ingestDue[i]))
		for _, ev := range b {
			for _, c := range ev.Coords {
				h.int(int64(c))
			}
			h.float(ev.Value)
		}
	}
	for _, q := range in.queries {
		h.int(int64(q.due))
		if q.topk {
			h.int(1)
		}
		for _, c := range q.at {
			h.int(int64(c))
		}
	}
	in.hash = h.sum()
	return in, nil
}

// inputHash digests inputs in a fixed byte layout, recorded with every
// result so two runs can be checked to have measured the same inputs.
type inputHash struct {
	buf []byte
	h   hash.Hash
}

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (h *inputHash) int(v int64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	if len(h.buf) >= 1<<16 {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
}

func (h *inputHash) float(v float64) { h.int(int64(math.Float64bits(v))) }

func (h *inputHash) tensor(t *dismastd.Tensor) {
	for _, d := range t.Dims {
		h.int(int64(d))
	}
	h.int(int64(t.NNZ()))
	for _, c := range t.Coords {
		h.int(int64(c))
	}
	for _, v := range t.Vals {
		h.float(v)
	}
}

func (h *inputHash) sum() string {
	h.h.Write(h.buf)
	h.buf = h.buf[:0]
	return hex.EncodeToString(h.h.Sum(nil))
}
