package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"dismastd"
	"dismastd/internal/obs"
)

// inProcess wraps a serveServer for handler-level tests: requests go
// straight through the mux, no listener.
type inProcess struct {
	t   *testing.T
	srv *serveServer
}

func newInProcess(t *testing.T, stream *dismastd.Stream) *inProcess {
	return &inProcess{t: t, srv: newServeServer(stream, obs.NewLogger(io.Discard, slog.LevelError))}
}

func (p *inProcess) do(method, url string, body any) *httptest.ResponseRecorder {
	p.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			p.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	p.srv.mux().ServeHTTP(rec, httptest.NewRequest(method, url, rd))
	return rec
}

func (p *inProcess) ingest(events []eventJSON) ingestResponse {
	p.t.Helper()
	rec := p.do(http.MethodPost, "/ingest", events)
	if rec.Code != http.StatusOK {
		p.t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		p.t.Fatal(err)
	}
	return resp
}

func (p *inProcess) flush() {
	p.t.Helper()
	if rec := p.do(http.MethodPost, "/flush", nil); rec.Code != http.StatusOK {
		p.t.Fatalf("flush status %d: %s", rec.Code, rec.Body)
	}
}

// randomEvents draws n events inside dims, or — with grow > 0 — with
// one random mode reaching up to grow rows past its current size.
func randomEvents(rng *rand.Rand, dims []int, n, grow int) []eventJSON {
	out := make([]eventJSON, n)
	for i := range out {
		c := make([]int, len(dims))
		for m, d := range dims {
			c[m] = rng.Intn(d)
		}
		if grow > 0 {
			m := rng.Intn(len(dims))
			c[m] = dims[m] + rng.Intn(grow)
		}
		out[i] = eventJSON{Coords: c, Value: 0.5 + rng.Float64()}
	}
	return out
}

// checkPublished asserts that the published snapshot equals the live
// factors bitwise, page by page, and that /predict's page-view
// arithmetic equals dismastd.Predict on the live factors.
func checkPublished(t *testing.T, label string, srv *serveServer, rng *rand.Rand) {
	t.Helper()
	snap := srv.snap.Load()
	live := srv.stream.Factors()
	if snap == nil || live == nil {
		t.Fatalf("%s: no snapshot (%v) or no model (%v)", label, snap == nil, live == nil)
	}
	if fmt.Sprint(snap.dims) != fmt.Sprint(srv.stream.Dims()) {
		t.Fatalf("%s: snapshot dims %v, live %v", label, snap.dims, srv.stream.Dims())
	}
	for m, f := range live {
		pf := snap.factors[m]
		if pf.rows != f.Rows || pf.cols != f.Cols || len(pf.pages) != (f.Rows+pageRows-1)/pageRows {
			t.Fatalf("%s: mode %d snapshot %dx%d in %d pages, live %dx%d", label, m, pf.rows, pf.cols, len(pf.pages), f.Rows, f.Cols)
		}
		for p, page := range pf.pages {
			want := f.Data[p*pageRows*f.Cols : min((p+1)*pageRows, f.Rows)*f.Cols]
			if len(page) != len(want) {
				t.Fatalf("%s: mode %d page %d holds %d values, want %d", label, m, p, len(page), len(want))
			}
			for i := range want {
				if math.Float64bits(page[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: mode %d page %d differs from the live factor at %d", label, m, p, i)
				}
			}
		}
	}
	idx := make([]int, len(live))
	for q := 0; q < 16; q++ {
		for m, d := range snap.dims {
			idx[m] = rng.Intn(d)
		}
		if got, want := snap.predict(idx), dismastd.Predict(live, idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: predict%v = %v through pages, %v on the live factors", label, idx, got, want)
		}
	}
}

// TestServePublishMatchesLiveFactors is the copy-on-write oracle: after
// every step of a random sequence — events inside the anchor, growth,
// SweepEvery sweeps, /flush and resume — every published page equals
// the live factors bitwise.
func TestServePublishMatchesLiveFactors(t *testing.T) {
	opts := dismastd.Options{Rank: 3, MaxIters: 3, Seed: 4, SweepEvery: 29}
	rng := rand.New(rand.NewSource(17))
	p := newInProcess(t, dismastd.NewStream(opts))
	p.ingest(randomEvents(rng, []int{150, 90, 20}, 400, 0))
	p.flush()
	checkPublished(t, "init", p.srv, rng)

	autoSweeps := 0
	for step := 0; step < 60; step++ {
		var label string
		dims := p.srv.stream.Dims()
		switch r := rng.Intn(10); {
		case r < 5:
			label = "anchor"
			if p.ingest(randomEvents(rng, dims, 1+rng.Intn(12), 0)).Swept {
				label, autoSweeps = "anchor+sweep", autoSweeps+1
			}
		case r < 8:
			label = "grow"
			if p.ingest(randomEvents(rng, dims, 1+rng.Intn(4), 1+rng.Intn(70))).Swept {
				label, autoSweeps = "grow+sweep", autoSweeps+1
			}
		case r < 9:
			label = "flush"
			p.flush()
		default:
			label = "resume"
			var ckpt bytes.Buffer
			if err := p.srv.stream.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			resumed, err := dismastd.ResumeStream(&ckpt, opts)
			if err != nil {
				t.Fatal(err)
			}
			p = newInProcess(t, resumed)
		}
		checkPublished(t, fmt.Sprintf("step %d (%s)", step, label), p.srv, rng)
	}
	if autoSweeps < 2 || p.srv.stream.Snapshots() < 5 {
		t.Fatalf("%d SweepEvery sweeps, %d boundaries: the sequence missed a path", autoSweeps, p.srv.stream.Snapshots())
	}
}

// TestServeSnapshotImmutable holds a snapshot while later publishes
// land — growth, in-anchor events, sweeps — and readers hammer every
// snapshot concurrently. The held snapshot must be unchanged, and under
// the race detector no page a reader can see is ever written.
func TestServeSnapshotImmutable(t *testing.T) {
	opts := dismastd.Options{Rank: 3, MaxIters: 2, Seed: 6, SweepEvery: 150}
	rng := rand.New(rand.NewSource(23))
	p := newInProcess(t, dismastd.NewStream(opts))
	p.ingest(randomEvents(rng, []int{130, 70, 9}, 300, 0))
	p.flush()

	held := p.srv.snap.Load()
	want := make([][][]float64, len(held.factors))
	for m, f := range held.factors {
		for _, page := range f.pages {
			want[m] = append(want[m], append([]float64(nil), page...))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			idx := make([]int, 3)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, snap := range []*factorSnapshot{held, p.srv.snap.Load()} {
					sum := 0.0
					for _, f := range snap.factors {
						for _, page := range f.pages {
							for _, v := range page {
								sum += v
							}
						}
					}
					for m, d := range snap.dims {
						idx[m] = (i*7 + r + m) % d
					}
					if a, b := snap.predict(idx), snap.predict(idx); a != b || math.IsNaN(sum) {
						t.Errorf("reader %d: snapshot epoch %d is not stable", r, snap.epoch)
						return
					}
				}
				rec := httptest.NewRecorder()
				p.srv.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?mode=0&at=_,1,1&k=3", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: topk status %d", r, rec.Code)
					return
				}
			}
		}(r)
	}
	wrng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		grow := 0
		if i%3 == 0 {
			grow = 20
		}
		p.ingest(randomEvents(wrng, p.srv.stream.Dims(), 8, grow))
		if i%13 == 12 {
			p.flush()
		}
	}
	close(stop)
	wg.Wait()

	if p.srv.snap.Load().epoch <= held.epoch+40 {
		t.Fatalf("epoch %d after 40 publishes past %d", p.srv.snap.Load().epoch, held.epoch)
	}
	for m, f := range held.factors {
		for pi, page := range f.pages {
			for i, v := range page {
				if math.Float64bits(v) != math.Float64bits(want[m][pi][i]) {
					t.Fatalf("held snapshot mode %d page %d changed at %d after later publishes", m, pi, i)
				}
			}
		}
	}
}

// pageStats reads the cumulative publish page counters from /stats.
func pageStats(t *testing.T, p *inProcess) (copied, total int64) {
	t.Helper()
	var st struct {
		Copied int64 `json:"publish_pages_copied"`
		Total  int64 `json:"publish_pages_total"`
	}
	rec := p.do(http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Copied, st.Total
}

// TestServePublishCopiesTouchedPages checks the publish cost through
// /stats: a 1-event ingest copies at most one page per mode, plus — in
// a mode it grew — the old tail page and the new pages; a flush copies
// every page.
func TestServePublishCopiesTouchedPages(t *testing.T) {
	opts := dismastd.Options{Rank: 2, MaxIters: 2, Seed: 3}
	rng := rand.New(rand.NewSource(31))
	p := newInProcess(t, dismastd.NewStream(opts))
	p.ingest(randomEvents(rng, []int{300, 200, 10}, 500, 0))
	p.flush()
	pages := func(rows int) int64 { return int64((rows + pageRows - 1) / pageRows) }

	for _, tc := range []struct {
		name   string
		coords []int
	}{
		{"in-anchor", []int{150, 70, 4}},
		{"grow mode 0 by one", []int{300, 3, 2}},
		{"grow mode 1 past a page", []int{12, 270, 9}},
		{"grow two modes", []int{301, 5, 12}},
	} {
		before := append([]int(nil), p.srv.stream.Dims()...)
		c0, t0 := pageStats(t, p)
		p.ingest([]eventJSON{{Coords: tc.coords, Value: 2}})
		c1, t1 := pageStats(t, p)
		after := p.srv.stream.Dims()
		bound, total := int64(0), int64(0)
		for m := range after {
			bound++ // the page of the one touched row
			if after[m] > before[m] {
				bound += pages(after[m]) - int64(before[m]/pageRows)
			}
			total += pages(after[m])
		}
		if c1-c0 > bound {
			t.Errorf("%s: publish copied %d pages, bound %d", tc.name, c1-c0, bound)
		}
		if t1-t0 != total {
			t.Errorf("%s: publish counted %d pages, snapshot has %d", tc.name, t1-t0, total)
		}
	}

	c0, t0 := pageStats(t, p)
	p.flush()
	c1, t1 := pageStats(t, p)
	if c1-c0 != t1-t0 || c1 == c0 {
		t.Errorf("flush copied %d of %d pages, want all", c1-c0, t1-t0)
	}
}

// TestServeRejectsWrappedCoordinate: an event coordinate past the int32
// index range answers 400 — before the fix it was narrowed to a small
// index while the mode grew to the unwrapped size, an OOM that killed
// the worker — and the server keeps serving.
func TestServeRejectsWrappedCoordinate(t *testing.T) {
	opts := dismastd.Options{Rank: 2, MaxIters: 2, Seed: 1}
	p := newInProcess(t, dismastd.NewStream(opts))
	wrapped := []eventJSON{{Coords: []int{1<<32 + 3, 0, 0}, Value: 1}}
	if rec := p.do(http.MethodPost, "/ingest", wrapped); rec.Code != http.StatusBadRequest {
		t.Fatalf("pre-init wrapped ingest status %d, want 400", rec.Code)
	}
	p.ingest(serveEvents(40, 3))
	p.flush()
	before, _ := pageStats(t, p)
	if rec := p.do(http.MethodPost, "/ingest", wrapped); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrapped ingest status %d, want 400", rec.Code)
	}
	if after, _ := pageStats(t, p); after != before {
		t.Fatalf("rejected ingest published %d pages", after-before)
	}
	p.ingest([]eventJSON{{Coords: []int{2, 2, 2}, Value: 1}})
	if rec := p.do(http.MethodGet, "/predict?at=2,2,2", nil); rec.Code != http.StatusOK {
		t.Fatalf("predict after rejection status %d", rec.Code)
	}
	if dims := p.srv.stream.Dims(); dims[0] != 8 {
		t.Fatalf("dims %v after a rejected wrapped coordinate", dims)
	}
}

// TestTopKMatchesFullSort checks the bounded-heap selection against a
// full sort on scores with many ties, for every k from 1 past n.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		all := make([]topKResult, n)
		for i := range all {
			// Few distinct values force ties, broken by ascending index.
			all[i] = topKResult{Index: i, Score: float64(rng.Intn(1+trial)) - 3}
		}
		perm := rng.Perm(n) // the heap must not depend on offer order
		full := append([]topKResult(nil), all...)
		sort.Slice(full, func(a, b int) bool {
			if full[a].Score != full[b].Score {
				return full[a].Score > full[b].Score
			}
			return full[a].Index < full[b].Index
		})
		for _, k := range []int{1, 2, 3, n / 2, n, n + 5} {
			if k <= 0 {
				continue
			}
			top := newTopK(min(k, n))
			for _, i := range perm {
				top.offer(all[i].Index, all[i].Score)
			}
			got := top.sorted()
			want := full[:min(k, n)]
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d results, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: result %d = %+v, full sort says %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}
