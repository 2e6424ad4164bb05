package main

// The stream workloads (netflix-stream, book-stream): nested snapshots
// over the paper's 75%→100% schedule fed to the public dismastd.Stream
// in a closed loop — each snapshot is ingested when the previous Ingest
// returns.
//
// Untraced runs measure what a library user sees. Traced runs make the
// same steps through core.Session, which Stream itself steps through
// for Workers > 1, to read the per-rank phase totals and byte counts
// each step returns, and time the harness's own calls into the other
// layers.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"dismastd"
	"dismastd/internal/core"
	"dismastd/internal/cp"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/obs"
	"dismastd/internal/partition"
	"dismastd/internal/xrand"
)

// streamConfig fixes how a stream workload drives the library.
type streamConfig struct {
	shape   shape
	opts    dismastd.Options
	setups  int // set-ups per run; setup_s is their median
	cells   int // cells scored per query
	queries int // queries after every step
	// top names the parts of a traced step that together should be
	// larger than any other part: the predicted split.
	top []string
}

// fitTol bounds how far the distributed model's fit may sit from the
// single-threaded centralized DTD reference on the same inputs: the two
// differ only by floating-point reordering.
const fitTol = 1e-6

func streamOpts() dismastd.Options {
	return dismastd.Options{Rank: 10, Workers: 2, Threads: 1, Partitioner: dismastd.MTP}
}

var netflixStream = streamConfig{
	shape: netflixShape, opts: streamOpts(), setups: 5, cells: 8192, queries: 40,
	top: []string{"mttkrp"},
}

var bookStream = streamConfig{
	shape: bookShape, opts: streamOpts(), setups: 5, cells: 8192, queries: 40,
	top: []string{"solve", "allreduce"},
}

// predictedSplit reports whether the named parts of a step split
// together outweigh every other part.
func predictedSplit(split []splitPart, top []string) bool {
	var sum, other float64
	for _, p := range split {
		if slices.Contains(top, p.Part) {
			sum += p.Ms
		} else {
			other = math.Max(other, p.Ms)
		}
	}
	return sum >= other
}

// rankPhases are the phases whose per-rank totals tile a rank's share
// of a distributed step; nested spans (the per-chunk MTTKRP spans) are
// left out so nothing is counted twice.
var rankPhases = []string{"mttkrp", "solve", "allreduce", "exchange", "loss"}

func runStream(cfg streamConfig, seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	in, err := genStream(cfg.shape, seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.inputs = in.hash
	full := in.seq.Full
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d nnz, dims %v, inputs %s\n", cfg.shape.name, full.NNZ(), full.Dims, in.hash[:16])

	// Set-up: NewStream plus the first Ingest (initial CP-ALS) until the
	// model can answer, repeated; the last one is checkpointed so every
	// pass starts from the same model.
	var setups, inits []float64
	var ckpt []byte
	var initIters int
	first := in.seq.Snapshot(0)
	for k := 0; k < cfg.setups; k++ {
		runtime.GC() // each set-up starts from the same heap, not its predecessor's garbage
		t0 := time.Now()
		s := dismastd.NewStream(cfg.opts)
		rep, err := s.Ingest(first)
		d := time.Since(t0)
		o.attempts++
		if err != nil {
			o.fail("set-up %d: %v", k, err)
			return o, nil
		}
		tr.record("cp.init", 0, -1, t0, d, map[string]any{"setup": k})
		setups = append(setups, d.Seconds())
		inits = append(inits, ms(rep.Wall))
		initIters = rep.Iters
		o.check(factorsFinite(s.Factors()), "set-up %d: non-finite factors", k)
		if k == cfg.setups-1 {
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				return nil, fmt.Errorf("checkpoint after set-up: %w", err)
			}
			ckpt = buf.Bytes()
		}
	}
	o.values["setup_s"] = medianFloat(setups)
	o.samples["setup_s"] = sample{N: len(setups)}

	p := &passes{cfg: cfg, in: in, ckpt: ckpt, o: o, cells: queryCells(in.seq.Snapshot(1), seed)}
	budget := time.Duration(seconds * float64(time.Second))
	if tr != nil {
		// A traced run splits its budget: untraced passes first, the
		// baseline for the tracing overhead, then traced passes.
		budget /= 3
	}
	// peak_rss_mb covers the passes alone: the generator's and the
	// set-ups' garbage is returned to the OS and the high-water mark
	// reset first, so what remains is the full tensor a user holds and
	// whatever the program allocates.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if err := p.run(budget); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if p.final == nil {
		return o, nil // the first pass failed; the result says so
	}
	o.values["peak_rss_mb"] = rss
	o.timing("step_ms", append([]time.Duration(nil), p.steps...), 0.5, time.Millisecond)
	o.timing("ingest_p50_ms", append([]time.Duration(nil), p.steps...), 0.5, time.Millisecond)
	o.timing("ingest_p99_ms", append([]time.Duration(nil), p.steps...), 0.99, time.Millisecond)
	o.timing("stream_s", append([]time.Duration(nil), p.passWalls...), 0.5, time.Second)
	o.timing("query_p50_ms", append([]time.Duration(nil), p.queries...), 0.5, time.Millisecond)
	o.timing("query_p99_ms", append([]time.Duration(nil), p.queries...), 0.99, time.Millisecond)
	var total time.Duration
	for _, w := range p.passWalls {
		total += w
	}
	o.values["events_per_s"] = float64(p.entries) / total.Seconds()
	o.samples["events_per_s"] = sample{N: len(p.passWalls)}

	fit := fitOf(full, p.final)
	o.values["fit"] = fit
	o.check(!math.IsNaN(fit) && fit > 0 && fit <= 1, "fit %v outside (0, 1]", fit)

	// The reference: a single-threaded centralized DTD stream from the
	// same checkpoint over the same snapshots.
	ref := cfg.opts
	ref.Workers, ref.Threads = 1, 1
	rs, err := dismastd.ResumeStream(bytes.NewReader(ckpt), ref)
	if err != nil {
		return nil, fmt.Errorf("reference resume: %w", err)
	}
	var refSteps []float64
	for i := 1; i < in.seq.Len(); i++ {
		snap := in.seq.Snapshot(i)
		id := tr.begin("dtd.step", 0, -1)
		rep, err := rs.Ingest(snap)
		tr.end(id, map[string]any{"step": i})
		o.attempts++
		if err != nil {
			o.fail("reference step %d: %v", i, err)
			return o, nil
		}
		refSteps = append(refSteps, ms(rep.Wall))
	}
	refFit := fitOf(full, rs.Factors())
	o.check(math.Abs(fit-refFit) <= fitTol, "fit %.9f differs from the centralized DTD reference %.9f by more than %g", fit, refFit, fitTol)
	fmt.Fprintf(os.Stderr, "e2ebench: fit %.6f, centralized DTD reference %.6f (tolerance %g)\n", fit, refFit, fitTol)

	if tr == nil {
		return o, nil
	}
	untracedStep := meanDur(p.steps)
	lv := map[string]float64{
		"cp.init_ms":  medianFloat(inits),
		"cp.iters":    float64(initIters),
		"dtd.step_ms": meanFloat(refSteps),
	}
	rep, err := p.traced(budget, tr, lv)
	if err != nil {
		return nil, err
	}
	lv["trace.overhead_pct"] = 100 * (lv["core.step_ms"] - ms(untracedStep)) / ms(untracedStep)
	rep.fillRows(lv)
	o.layers = rep
	return o, nil
}

// passes runs repeated stream passes from one checkpointed model.
type passes struct {
	cfg   streamConfig
	in    *streamInputs
	ckpt  []byte
	o     *outcome
	cells []int // query cells, flattened coordinates

	steps, passWalls, queries []time.Duration
	entries                   int64
	final                     []*dismastd.Dense
	digest                    string
}

// run makes untraced passes through the public Stream API until budget
// is spent, at least two. The garbage collector runs once before each
// pass and otherwise when the program's allocations call for it, so
// each step pays for the collections its garbage causes, as in use.
func (p *passes) run(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		s, err := dismastd.ResumeStream(bytes.NewReader(p.ckpt), p.cfg.opts)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		runtime.GC()
		var wall time.Duration
		for i := 1; i < p.in.seq.Len(); i++ {
			snap := p.in.seq.Snapshot(i)
			t0 := time.Now()
			rep, err := s.Ingest(snap)
			d := time.Since(t0)
			p.o.attempts++
			if err != nil {
				p.o.fail("pass %d step %d: %v", n, i, err)
				return nil
			}
			p.steps = append(p.steps, d)
			p.entries += int64(rep.EntriesTouched)
			wall += d
			for q := 0; q < p.cfg.queries; q++ {
				p.query(s.Factors())
			}
		}
		p.passWalls = append(p.passWalls, wall)
		p.checkPass(n, s.Factors())
	}
	return nil
}

// checkPass checks a pass's final model: every factor finite, and
// bitwise equal to the first pass's — the same inputs must give the
// same model.
func (p *passes) checkPass(n int, factors []*dismastd.Dense) {
	p.o.check(factorsFinite(factors), "pass %d: non-finite factors", n)
	d := factorDigest(factors)
	if p.digest == "" {
		p.digest, p.final = d, factors
		return
	}
	p.o.check(d == p.digest, "pass %d: model differs from the first pass's on the same inputs", n)
}

// queryPool is how many distinct cells the queries draw on.
const queryPool = 1 << 16

// queryCells draws the query cells from the entries of the first
// incremental snapshot, which every later model covers.
func queryCells(snap *dismastd.Tensor, seed uint64) []int {
	qr := rng(seed, 3)
	order := snap.Order()
	cells := make([]int, queryPool*order)
	for i := 0; i < queryPool; i++ {
		snap.Coord(qr.IntN(snap.NNZ()), cells[i*order:(i+1)*order])
	}
	return cells
}

// query times one read of the model a step just produced: Predict
// over a candidate list of cells, every score finite. Successive
// queries take successive windows of the cell pool.
func (p *passes) query(factors []*dismastd.Dense) {
	order := len(factors)
	start := len(p.queries) * p.cfg.cells
	t0 := time.Now()
	sum := 0.0
	for c := start; c < start+p.cfg.cells; c++ {
		i := c % queryPool
		sum += dismastd.Predict(factors, p.cells[i*order:(i+1)*order])
	}
	d := time.Since(t0)
	p.o.attempts++
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		p.o.fail("query %d: non-finite prediction", len(p.queries))
		return
	}
	p.queries = append(p.queries, d)
}

// traced makes passes through core.Session with the same options the
// Stream derives, until budget is spent (at least one), and returns the
// per-layer table. Layer values are means per step.
func (p *passes) traced(budget time.Duration, tr *tracer, lv map[string]float64) (*layerReport, error) {
	cfg := p.cfg
	workers, threads := cfg.opts.Workers, cfg.opts.Threads
	sum := map[string]float64{}
	var steps int
	var lastSplit []splitPart
	var lastWall float64
	deadline := time.Now().Add(budget)
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		prev, boundary, err := dtd.ReadStateSteps(bytes.NewReader(p.ckpt))
		if err != nil {
			return nil, fmt.Errorf("read checkpoint: %w", err)
		}
		sess := core.NewSession(workers)
		pass := tr.begin("stream.pass", 0, n)
		runtime.GC()
		for i := 1; i < p.in.seq.Len(); i++ {
			snap := p.in.seq.Snapshot(i)
			planObs := obs.New()
			co := core.Options{
				Rank: cfg.opts.Rank, Seed: xrand.Derive(cfg.opts.Seed, boundary+uint64(i-1)),
				Workers: workers, Method: partition.MTPMethod, Threads: threads, Obs: planObs,
			}
			id := tr.begin("core.step", pass, n)
			t0 := time.Now()
			next, stats, err := sess.Step(prev, snap, co)
			wall := time.Since(t0)
			tr.end(id, map[string]any{"step": i})
			p.o.attempts++
			if err != nil {
				p.o.fail("traced pass %d step %d: %v", n, i, err)
				return &layerReport{}, nil
			}

			// Replays of the planning layers on the same inputs, timed
			// outside the step: the complement, and the per-rank sparse
			// kernels the step builds for its sweeps.
			c0 := time.Now()
			comp := snap.Complement(prev.Dims)
			complement := time.Since(c0)
			tr.record("tensor.complement", id, n, c0, complement, nil)
			plan := dplan.BuildWeighted(comp, workers, workers, partition.MTPMethod, nil)
			var compile time.Duration
			for r := 0; r < workers; r++ {
				k0 := time.Now()
				for m := range comp.Dims {
					_ = mttkrp.NewKernelOf(comp, m, plan.EntryLists[r][m], layout.COO)
				}
				d := time.Since(k0)
				tr.record("layout.compile", id, n, k0, d, map[string]any{"rank": r})
				compile = max(compile, d)
			}

			parts := stepLayers(stats, planObs, wall, tr, n, i)
			parts["tensor.complement_ms"] = ms(complement)
			parts["layout.compile_ms"] = ms(compile)
			for k, v := range parts {
				sum[k] += v
			}
			steps++
			lastWall = ms(wall)
			lastSplit = []splitPart{
				{"core.plan", parts["core.plan_ms"]},
				{"mttkrp", parts["mttkrp.busy_ms"]},
				{"solve", parts["mat.solve_ms"]},
				{"allreduce", parts["cluster.allreduce_ms"]},
				{"exchange", parts["cluster.exchange_ms"]},
				{"loss", parts["cluster.loss_wait_ms"]},
				{"core.unattributed", parts["core.unattributed_ms"]},
			}
			prev = next
		}
		tr.end(pass, nil)
		p.o.check(factorDigest(prev.Factors) == p.digest, "traced pass %d: model differs from the untraced Stream's on the same inputs", n)
	}
	for k, v := range sum {
		lv[k] = v / float64(steps)
	}
	lv["mttkrp.ns_per_entry"] = sum["mttkrp.total_ns"] / math.Max(1, sum["mttkrp.entries"])
	rep := &layerReport{Split: lastSplit, SplitWall: lastWall}
	rep.Predicted = strings.Join(cfg.top, " + ") + " largest: yes"
	if !predictedSplit(lastSplit[:len(lastSplit)-1], cfg.top) {
		rep.Predicted = strings.Join(cfg.top, " + ") + " largest: NO — this run does not show the predicted split"
	}
	rep.Notes = append(rep.Notes,
		"rank phases come from the critical rank (largest phase total) of each step; core.unattributed_ms is the step wall minus core.plan_ms minus that rank's phase total",
		"tensor.complement_ms and layout.compile_ms are harness replays timed outside the step; inside the step they fall in core.plan_ms and core.unattributed_ms",
		"per-layer values are means per traced step; serve.*, dtd.apply_ms, dtd.sweep_ms, dtd.rows_per_batch, tensor.build_ms and loadgen.lag_ms are 0 here because this workload does not exercise them")
	return rep, nil
}

// stepLayers turns one distributed step's returned statistics into
// per-layer values, and records each rank's phase totals in the trace.
func stepLayers(stats *core.StepStats, planObs *obs.Obs, wall time.Duration, tr *tracer, pass, step int) map[string]float64 {
	v := map[string]float64{}
	var plan time.Duration
	for _, ps := range planObs.Snapshot().Phases {
		plan += ps.Total
	}
	rankTotals := make([]time.Duration, len(stats.Cluster.Ranks))
	rankPh := make([]map[string]time.Duration, len(stats.Cluster.Ranks))
	var entries, rows, bytesSent, msgs, maxBytes int64
	var mttkrpAll time.Duration
	for r, rk := range stats.Cluster.Ranks {
		rankPh[r] = map[string]time.Duration{}
		if rk.Obs != nil {
			for _, ps := range obs.AggregatePhases(rk.Obs.Phases) {
				tr.phase(phaseRecord{Trace: pass, Step: step, Rank: r, Name: ps.Name, Count: ps.Count, Total: int64(ps.Total)})
				rankPh[r][ps.Name] = ps.Total
			}
			entries += rk.Obs.Metrics.Counters["mttkrp.rows"]
			rows += rk.Obs.Metrics.Counters["solve.rows"]
		}
		for _, name := range rankPhases {
			rankTotals[r] += rankPh[r][name]
		}
		mttkrpAll += rankPh[r]["mttkrp"]
		bytesSent += rk.BytesSent
		msgs += rk.MsgsSent
		maxBytes = max(maxBytes, rk.BytesSent)
	}
	crit, fast := 0, 0
	for r, t := range rankTotals {
		if t > rankTotals[crit] {
			crit = r
		}
		if t < rankTotals[fast] {
			fast = r
		}
	}
	ph := rankPh[crit]
	v["core.step_ms"] = ms(wall)
	v["core.plan_ms"] = ms(plan)
	v["mttkrp.busy_ms"] = ms(ph["mttkrp"])
	v["mat.solve_ms"] = ms(ph["solve"])
	v["cluster.allreduce_ms"] = ms(ph["allreduce"])
	v["cluster.exchange_ms"] = ms(ph["exchange"])
	v["cluster.loss_wait_ms"] = ms(ph["loss"])
	v["core.unattributed_ms"] = ms(wall - plan - rankTotals[crit])
	v["core.rank_skew_ms"] = ms(rankTotals[crit] - rankTotals[fast])
	v["mttkrp.entries"] = float64(entries)
	v["mttkrp.total_ns"] = float64(mttkrpAll)
	v["mat.rows_solved"] = float64(rows)
	v["cluster.bytes"] = float64(bytesSent)
	v["cluster.max_rank_bytes"] = float64(maxBytes)
	v["cluster.messages"] = float64(msgs)
	v["partition.imbalance"] = meanFloat(stats.Imbalance)
	return v
}

// fitOf returns 1 − ‖X − [[A]]‖/‖X‖.
func fitOf(x *dismastd.Tensor, factors []*mat.Dense) float64 {
	return 1 - cp.LossAgainst(x, factors)/x.Norm()
}

func factorsFinite(factors []*dismastd.Dense) bool {
	for _, f := range factors {
		if !finite(f.Data) {
			return false
		}
	}
	return true
}

// factorDigest hashes the factors' exact bits.
func factorDigest(factors []*dismastd.Dense) string {
	h := sha256.New()
	var buf []byte
	for _, f := range factors {
		for _, x := range f.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			if len(buf) >= 1<<16 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
