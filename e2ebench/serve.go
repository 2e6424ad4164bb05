package main

// The serve-mixed workload: a `worker -serve-http` subprocess with its
// default flags, warmed with snapshot 0, then driven by two open loops
// from this process over two connections — growth-region event batches
// to /ingest at a fixed rate, and queries to /predict with one in 60 a
// /topk?mode=1. Every request is timed from its due time, so a
// stall counts against every request it delays. At the end the harness
// flushes, sends SIGTERM and reads the -state checkpoint the worker
// writes on shutdown.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dismastd"
	"dismastd/internal/dtd"
)

// serveConfig fixes the serve-mixed set-up and load.
type serveConfig struct {
	shape  shape
	load   serveLoad
	setups int // worker launches per run; setup_s is their median
	topK   int
	checks int // quiescent /predict values compared with the checkpoint
}

var serveMixed = serveConfig{shape: serveShape, load: defaultLoad, setups: 3, topK: 10, checks: 64}

// workerSweepEvery is the worker's default -sweep-every: the pending
// event count at which it runs the drift-backstop sweep.
const workerSweepEvery = 4096

// workerOpts mirrors the options `worker -serve-http` builds from its
// default flags, for the in-process replay of a traced run.
func workerOpts() dismastd.Options {
	return dismastd.Options{Rank: 10, MaxIters: 10, ForgettingFactor: 0.8, Seed: 1, Workers: 1,
		Threads: runtime.GOMAXPROCS(0), Layout: "coo", Solver: "exact"}
}

// reqRec is one request of an open loop, times from the main phase
// start: when it was due, when it was sent and when its answer came.
type reqRec struct {
	due, issued, done time.Duration
	lag               time.Duration // generator lateness beyond what the server imposed
	ok, swept, topk   bool
}

func (r reqRec) latency() time.Duration { return r.done - r.due }
func (r reqRec) service() time.Duration { return r.done - r.issued }
func (r reqRec) wait() time.Duration    { return r.issued - r.due }

// server is one running worker process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // the process's exit status, valid after exited
}

// startServer launches the worker and waits until it listens.
func startServer(bin, logPath, statePath string) (*server, error) {
	args := []string{"-serve-http", "127.0.0.1:0"}
	if statePath != "" {
		args = append(args, "-state", statePath)
	}
	cmd := exec.Command(bin, args...)
	// The worker must not outlive the harness, even if the harness is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start worker: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
			s.addr = a
			break
		}
	}
	go func() {
		io.Copy(io.Discard, out)
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	if s.addr == "" {
		s.kill()
		return nil, fmt.Errorf("worker exited before listening (log: %s)", logPath)
	}
	return s, nil
}

// stop sends SIGTERM and waits for the worker's graceful shutdown.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		return s.err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("worker did not shut down within 60s")
	}
}

// kill ends the worker at once and waits for it; safe after stop.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Kill()
	<-s.exited
}

// client is one keep-alive connection to the worker.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends body and decodes a 200 answer into out.
func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func get(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

// eventsJSON encodes events in the worker's /ingest wire form.
func eventsJSON(evs []dismastd.Event) []byte {
	type wire struct {
		Coords []int   `json:"coords"`
		Value  float64 `json:"value"`
	}
	ws := make([]wire, len(evs))
	for i, e := range evs {
		ws[i] = wire{e.Coords, e.Value}
	}
	b, _ := json.Marshal(ws) // plain ints and finite floats always encode
	return b
}

func tensorEvents(t *dismastd.Tensor) []dismastd.Event {
	evs := make([]dismastd.Event, t.NNZ())
	for e := range evs {
		evs[e] = dismastd.Event{Coords: t.Coord(e, nil), Value: t.Val(e)}
	}
	return evs
}

type ingestAnswer struct {
	Events int   `json:"events"`
	Swept  bool  `json:"swept"`
	Dims   []int `json:"dims"`
}

type predictAnswer struct {
	At    []int   `json:"at"`
	Value float64 `json:"value"`
}

type topkAnswer struct {
	Mode    int `json:"mode"`
	Results []struct {
		Index int     `json:"index"`
		Score float64 `json:"score"`
	} `json:"results"`
}

func runServe(cfg serveConfig, seed uint64, seconds float64, bin, outDir string, tr *tracer) (*outcome, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-mixed needs -worker, the path of the built worker binary")
	}
	in, err := genServe(cfg.shape, seed, cfg.load, seconds)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.inputs = in.hash
	warmEvents := tensorEvents(in.warm)
	warmBody := eventsJSON(warmEvents)
	bodies := make([][]byte, len(in.batches))
	for i, b := range in.batches {
		bodies[i] = eventsJSON(b)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: warm %d nnz, dims %v; %d batches of %d events; %d queries; inputs %s\n",
		cfg.shape.name, in.warm.NNZ(), in.warm.Dims, len(in.batches), cfg.load.batch, len(in.queries), in.hash[:16])

	// Set-up: worker launch until the warm model answers, repeated. The
	// last server stays up for the main phase.
	tag := fmt.Sprintf("serve-mixed-seed%d", seed)
	statePath := filepath.Join(outDir, tag+".state")
	os.Remove(statePath)
	var setups []float64
	var srv *server
	for k := 0; k < cfg.setups; k++ {
		last := k == cfg.setups-1
		sp := ""
		if last {
			sp = statePath
		}
		t0 := time.Now()
		s, err := startServer(bin, filepath.Join(outDir, fmt.Sprintf("%s-worker%d.log", tag, k)), sp)
		if err != nil {
			return nil, err
		}
		c := newClient()
		var ing ingestAnswer
		var fl map[string]any
		err = post(c, "http://"+s.addr+"/ingest", warmBody, &ing)
		if err == nil {
			err = post(c, "http://"+s.addr+"/flush", nil, &fl)
		}
		d := time.Since(t0)
		c.CloseIdleConnections()
		o.attempts += 2
		if err != nil {
			s.kill()
			o.fail("set-up %d: %v", k, err)
			return o, nil
		}
		o.check(ing.Events == len(warmEvents), "set-up %d: /ingest accepted %d of %d events", k, ing.Events, len(warmEvents))
		setups = append(setups, d.Seconds())
		if last {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up worker %d: %w", k, err)
		}
	}
	defer srv.kill()
	o.values["setup_s"] = medianFloat(setups)
	o.samples["setup_s"] = sample{N: len(setups)}
	base := "http://" + srv.addr

	// Main phase: both open loops against one schedule clock.
	queryURLs := make([]string, len(in.queries))
	for j, q := range in.queries {
		if q.topk {
			queryURLs[j] = fmt.Sprintf("%s/topk?mode=1&at=%d,_,%d&k=%d", base, q.at[0], q.at[2], cfg.topK)
		} else {
			queryURLs[j] = fmt.Sprintf("%s/predict?at=%d,%d,%d", base, q.at[0], q.at[1], q.at[2])
		}
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	hardStop := t0.Add(time.Duration(2*seconds*float64(time.Second)) + 30*time.Second)
	var ingests, queries []reqRec
	var ingestFails, queryFails []string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		ingests, ingestFails = openLoop(len(bodies), func(i int) time.Duration { return in.ingestDue[i] }, t0, hardStop,
			func(i int, r *reqRec) error {
				var a ingestAnswer
				if err := post(c, base+"/ingest", bodies[i], &a); err != nil {
					return err
				}
				r.swept = a.Swept
				if a.Events != len(in.batches[i]) {
					return fmt.Errorf("accepted %d of %d events", a.Events, len(in.batches[i]))
				}
				return nil
			})
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		queries, queryFails = openLoop(len(queryURLs), func(j int) time.Duration { return in.queries[j].due }, t0, hardStop,
			func(j int, r *reqRec) error {
				q := in.queries[j]
				r.topk = q.topk
				if q.topk {
					var a topkAnswer
					if err := get(c, queryURLs[j], &a); err != nil {
						return err
					}
					return checkTopK(a, cfg.topK)
				}
				var a predictAnswer
				if err := get(c, queryURLs[j], &a); err != nil {
					return err
				}
				if len(a.At) != 3 || a.At[0] != q.at[0] || a.At[1] != q.at[1] || a.At[2] != q.at[2] {
					return fmt.Errorf("answer for cell %v, asked %v", a.At, q.at)
				}
				if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
					return fmt.Errorf("non-finite prediction %v", a.Value)
				}
				return nil
			})
	}()
	wg.Wait()
	for _, f := range ingestFails {
		o.fail("/ingest: %s", f)
	}
	for _, f := range queryFails {
		o.fail("query: %s", f)
	}
	o.attempts += int64(len(ingests) + len(queries))

	// The final model: flush what is pending, then read it back.
	c := newClient()
	defer c.CloseIdleConnections()
	var fl map[string]any
	err = post(c, base+"/flush", nil, &fl)
	streamEnd := time.Since(t0)
	o.attempts++
	if err != nil {
		o.fail("final /flush: %v", err)
		return o, nil
	}
	o.values["stream_s"] = streamEnd.Seconds()
	o.samples["stream_s"] = sample{N: 1}

	// Quiescent reads, compared below with the checkpoint bit for bit.
	fed := append([]dismastd.Event(nil), warmEvents...)
	var accepted int
	for i, r := range ingests {
		if r.ok {
			fed = append(fed, in.batches[i]...)
			accepted += len(in.batches[i])
		}
	}
	cr := rng(seed, 4)
	checkCells := make([][]int, cfg.checks)
	served := make([]float64, cfg.checks)
	for k := range checkCells {
		checkCells[k] = fed[cr.IntN(len(fed))].Coords
		var a predictAnswer
		err := get(c, fmt.Sprintf("%s/predict?at=%d,%d,%d", base, checkCells[k][0], checkCells[k][1], checkCells[k][2]), &a)
		o.attempts++
		if err != nil {
			o.fail("quiescent /predict %v: %v", checkCells[k], err)
			served[k] = math.NaN()
			continue
		}
		served[k] = a.Value
	}

	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	o.values["peak_rss_mb"] = rss
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop worker: %w", err)
	}

	// Latency and throughput from the open loops.
	var ingLat, swept, qLat []time.Duration
	var lastDone time.Duration
	for _, r := range ingests {
		if !r.ok {
			continue
		}
		ingLat = append(ingLat, r.latency())
		if r.swept {
			swept = append(swept, r.service())
		}
		lastDone = max(lastDone, r.done)
	}
	for _, r := range queries {
		if r.ok {
			qLat = append(qLat, r.latency())
		}
	}
	o.timing("ingest_p50_ms", append([]time.Duration(nil), ingLat...), 0.5, time.Millisecond)
	o.timing("ingest_p99_ms", append([]time.Duration(nil), ingLat...), 0.99, time.Millisecond)
	o.timing("query_p50_ms", append([]time.Duration(nil), qLat...), 0.5, time.Millisecond)
	o.timing("query_p99_ms", append([]time.Duration(nil), qLat...), 0.99, time.Millisecond)
	o.timing("step_ms", swept, 0.5, time.Millisecond)
	o.values["events_per_s"] = float64(accepted) / lastDone.Seconds()
	o.samples["events_per_s"] = sample{N: len(ingLat)}

	// The checkpoint: finite, equal to what was served, and its fit
	// recomputed here on every event fed.
	st, err := readState(statePath)
	if err != nil {
		o.attempts++
		o.fail("read checkpoint: %v", err)
		return o, nil
	}
	o.check(factorsFinite(st.Factors), "checkpoint has non-finite factors")
	for k, idx := range checkCells {
		want := dismastd.Predict(st.Factors, idx)
		o.check(served[k] == want, "served /predict %v = %v, checkpoint gives %v", idx, served[k], want)
	}
	b := dismastd.NewBuilder(st.Dims)
	for _, ev := range fed {
		b.Append(ev.Coords, ev.Value)
	}
	fit := fitOf(b.Build(), st.Factors)
	o.values["fit"] = fit
	o.check(!math.IsNaN(fit) && fit > 0 && fit <= 1, "checkpoint fit %v outside (0, 1]", fit)
	fmt.Fprintf(os.Stderr, "e2ebench: served model fit %.6f over %d events, %d sweeps\n", fit, len(fed), len(swept))

	if tr == nil {
		return o, nil
	}
	return o, serveLayers(o, in, warmEvents, t0, ingests, queries, st, tr)
}

// openLoop sends request i at its due time on one connection. When the
// previous answer is late, the request waits for the connection and
// that wait counts in its latency. Requests still unsent at hardStop
// fail.
func openLoop(n int, due func(int) time.Duration, t0, hardStop time.Time, do func(int, *reqRec) error) ([]reqRec, []string) {
	recs := make([]reqRec, n)
	var fails []string
	var prevDone time.Duration
	for i := range recs {
		r := &recs[i]
		r.due = due(i)
		if wait := time.Until(t0.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		if time.Now().After(hardStop) {
			for j := i; j < n; j++ {
				recs[j] = reqRec{due: due(j)}
				fails = append(fails, fmt.Sprintf("request %d unsent at the hard stop", j))
			}
			break
		}
		r.issued = time.Since(t0)
		r.lag = r.issued - max(r.due, prevDone)
		err := do(i, r)
		r.done = time.Since(t0)
		prevDone = r.done
		if err != nil {
			fails = append(fails, fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		r.ok = true
	}
	return recs, fails
}

func checkTopK(a topkAnswer, k int) error {
	if a.Mode != 1 || len(a.Results) != k {
		return fmt.Errorf("topk answered mode %d with %d results, asked mode 1 k %d", a.Mode, len(a.Results), k)
	}
	for i, r := range a.Results {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) || r.Index < 0 {
			return fmt.Errorf("topk result %d: index %d score %v", i, r.Index, r.Score)
		}
		if i > 0 && r.Score > a.Results[i-1].Score {
			return fmt.Errorf("topk results not in descending score order at %d", i)
		}
	}
	return nil
}

func readState(path string) (*dtd.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, _, err := dtd.ReadStateSteps(f)
	return st, err
}

// serveLayers fills a traced serve run's per-layer table: the serving
// split from the open loops, and the engine layers from an in-process
// replay of the same event batches through the public Stream, which
// must reach the served checkpoint bit for bit.
func serveLayers(o *outcome, in *serveInputs, warm []dismastd.Event, t0 time.Time, ingests, queries []reqRec, served *dtd.State, tr *tracer) error {
	lv := map[string]float64{}
	var ingSvc, ingWait, predict, topk, qWait, lag []time.Duration
	var sweeps int
	for i, r := range ingests {
		tr.record("serve.ingest", 0, i, t0.Add(r.issued), r.service(), map[string]any{"due_ns": r.due, "swept": r.swept, "ok": r.ok})
		if !r.ok {
			continue
		}
		ingWait = append(ingWait, r.wait())
		lag = append(lag, r.lag)
		if r.swept {
			sweeps++
		} else {
			ingSvc = append(ingSvc, r.service())
		}
	}
	for j, r := range queries {
		name := "serve.predict"
		if r.topk {
			name = "serve.topk"
		}
		tr.record(name, 0, len(ingests)+j, t0.Add(r.issued), r.service(), map[string]any{"due_ns": r.due, "ok": r.ok})
		if !r.ok {
			continue
		}
		qWait = append(qWait, r.wait())
		lag = append(lag, r.lag)
		if r.topk {
			topk = append(topk, r.service())
		} else {
			predict = append(predict, r.service())
		}
	}
	lv["serve.sweeps"] = float64(sweeps)
	lv["serve.ingest_service_ms"] = ms(quantile(ingSvc, 0.5))
	lv["serve.ingest_wait_ms"] = ms(quantile(ingWait, 0.5))
	lv["serve.predict_ms"] = ms(quantile(predict, 0.5))
	lv["serve.topk_ms"] = ms(quantile(topk, 0.5))
	lv["serve.query_wait_ms"] = ms(quantile(qWait, 0.5))
	lv["loadgen.lag_ms"] = ms(quantile(lag, 0.5))

	// Replay: the worker's stream options, with the drift backstop run
	// by hand at the same threshold so applies and sweeps time apart.
	opts := workerOpts()
	s := dismastd.NewStream(opts)
	replay := tr.begin("stream.replay", 0, -1)
	var apply, sweep, build []time.Duration
	var rows int64
	var applied int
	var pending []dismastd.Event
	step := func(batch []dismastd.Event, i int) error {
		t0 := time.Now()
		rep, err := s.IngestEvents(batch)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		pending = append(pending, batch...)
		if s.Pending() < workerSweepEvery {
			apply = append(apply, d)
			rows += rep.RowsUpdated
			applied++
			tr.record("dtd.apply", replay, i, t0, d, map[string]any{"rows": rep.RowsUpdated})
			return nil
		}
		if i >= 0 {
			// A sweep first rebuilds the pending region into a tensor,
			// then steps; the rebuild is replayed and timed on its own.
			b0 := time.Now()
			bt := dismastd.NewBuilder(s.Dims())
			for _, ev := range pending {
				bt.Append(ev.Coords, ev.Value)
			}
			bt.Build()
			bd := time.Since(b0)
			build = append(build, bd)
			tr.record("tensor.build", replay, i, b0, bd, nil)
		}
		f0 := time.Now()
		sr, err := s.Flush()
		fd := time.Since(f0)
		if err != nil {
			return err
		}
		if i < 0 {
			lv["cp.init_ms"] = ms(fd)
			lv["cp.iters"] = float64(sr.Iters)
			tr.record("cp.init", replay, i, f0, fd, nil)
		} else {
			sweep = append(sweep, fd)
			tr.record("dtd.sweep", replay, i, f0, fd, map[string]any{"iters": sr.Iters})
		}
		pending = pending[:0]
		return nil
	}
	if err := step(warm, -1); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	for i, r := range ingests {
		if r.ok {
			if err := step(in.batches[i], i); err != nil {
				return fmt.Errorf("replay batch %d: %w", i, err)
			}
		}
	}
	if _, err := s.Flush(); err != nil {
		return fmt.Errorf("replay final flush: %w", err)
	}
	tr.end(replay, nil)
	o.check(factorDigest(s.Factors()) == factorDigest(served.Factors), "in-process replay of the same batches differs from the served checkpoint")

	lv["dtd.apply_ms"] = ms(quantile(apply, 0.5))
	lv["dtd.rows_per_batch"] = float64(rows) / math.Max(1, float64(applied))
	lv["dtd.sweep_ms"] = ms(quantile(sweep, 0.5))
	lv["tensor.build_ms"] = ms(quantile(build, 0.5))
	lv["serve.publish_ms"] = lv["serve.ingest_service_ms"] - lv["dtd.apply_ms"]

	rep := &layerReport{}
	rep.fillRows(lv)
	rep.Notes = append(rep.Notes,
		"serve.* times are medians from the open loops; serve.ingest_service_ms covers batches that did not sweep, and serve.publish_ms is it minus the in-process dtd.apply_ms (JSON, clone and publish)",
		"dtd.* and tensor.build_ms come from an in-process replay of the same batches, which must reach the served checkpoint bit for bit",
		"mttkrp.*, mat.*, cluster.*, core.*, partition.*, layout.*, tensor.complement_ms, dtd.step_ms and trace.overhead_pct are 0 here: the centralized server exposes no per-phase totals and this run makes no untraced twin")
	o.layers = rep
	return nil
}
