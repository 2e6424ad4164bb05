// Serve mode: a single-process online front end over the streaming
// decomposer. Instead of reading snapshot files, the worker listens
// for events over HTTP and answers reconstruction and top-K queries
// from the live factors:
//
//	worker -serve-http 127.0.0.1:8080 -rank 8 -sweep-every 4096 -state model.gob
//
//	curl -X POST -d '[{"coords":[3,7,1],"value":4.5}]' http://127.0.0.1:8080/ingest
//	curl 'http://127.0.0.1:8080/predict?at=3,7,1'
//	curl 'http://127.0.0.1:8080/topk?mode=1&at=3,_,1&k=5'
//	curl 'http://127.0.0.1:8080/stats'
//
// Writes (ingest, flush) are serialized on the stream; queries never
// touch it. Every write that changes the factors publishes a read-only
// snapshot behind an atomic pointer — epoch-swapped, so any number of
// concurrent readers score against a consistent model while the next
// micro-batch lands. Snapshots hold each factor as fixed-size row
// pages and are copy-on-write: a publish copies only the pages holding
// rows the stream reports changed (plus the tail pages of a grown
// mode) and shares every other page with the previous snapshot, so an
// /ingest costs what its batch touched, not what the model holds.
// Sweeps, /flush and resume publish through the same path with every
// page dirty. On SIGTERM the listener stops accepting, in-flight
// requests drain, pending events are flushed, and the final checkpoint
// is written to -state before the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dismastd"
	"dismastd/internal/mat"
	"dismastd/internal/obs"
)

// serveConfig carries the parsed serve-mode flags.
type serveConfig struct {
	addr         string
	statePath    string // resumed at start if present, written on shutdown
	opts         dismastd.Options
	drainTimeout time.Duration

	ready chan<- net.Addr // tests: receives the bound address once listening
}

// pageRows is the number of factor rows per snapshot page: the unit a
// publish copies. At rank 10 a page is 5 KiB, and a Book-sized mode of
// 1e5 rows needs ~1.6e3 page pointers re-shared per publish (see
// DESIGN.md, "Ingestion model", for how the size was chosen).
const pageRows = 64

// pagedFactor is one mode's factor in a snapshot, held as row pages of
// pageRows rows (the last page holds the remainder). Pages are never
// written after publication, which is what lets consecutive snapshots
// share them.
type pagedFactor struct {
	rows, cols int
	pages      [][]float64
}

// row returns row i, a view into its page.
func (f *pagedFactor) row(i int) []float64 {
	o := (i % pageRows) * f.cols
	return f.pages[i/pageRows][o : o+f.cols]
}

// repage returns live as pages, sharing prev's pages except those that
// hold a changed row, prev's tail page if the mode grew, and any new
// pages — those are copied from live. changed must be sorted
// ascending. A nil prev copies every page. It also returns how many
// pages it copied.
func repage(prev *pagedFactor, live *mat.Dense, changed []int) (pagedFactor, int) {
	n := (live.Rows + pageRows - 1) / pageRows
	out := pagedFactor{rows: live.Rows, cols: live.Cols, pages: make([][]float64, n)}
	first := 0 // pages from here on are copied wholesale
	if prev != nil {
		first = n
		if live.Rows > prev.rows {
			first = prev.rows / pageRows
		}
		copy(out.pages[:first], prev.pages)
	}
	copied := 0
	copyPage := func(p int) {
		lo, hi := p*pageRows*live.Cols, min((p+1)*pageRows, live.Rows)*live.Cols
		out.pages[p] = append([]float64(nil), live.Data[lo:hi]...)
		copied++
	}
	last := -1
	for _, i := range changed {
		p := i / pageRows
		if p >= first {
			break // the rest fall in pages copied below
		}
		if p != last {
			copyPage(p)
			last = p
		}
	}
	for p := first; p < n; p++ {
		copyPage(p)
	}
	return out, copied
}

// factorSnapshot is one epoch's published read-only model: the factors
// as copy-on-write row pages, swapped in atomically after every write
// that changes them. Readers load the pointer once and score against a
// consistent model for the whole request.
type factorSnapshot struct {
	epoch   int64
	dims    []int
	factors []pagedFactor
	sweeps  int // full-sweep boundaries behind this model
	pending int // events awaiting the next sweep when published
}

// predict evaluates the Kruskal model at idx through the page view,
// with cp.Reconstruct's exact operation order — so it is bitwise equal
// to dismastd.Predict on the factors the snapshot was taken from.
func (s *factorSnapshot) predict(idx []int) float64 {
	total := 0.0
	for c := 0; c < s.factors[0].cols; c++ {
		p := 1.0
		for k := range s.factors {
			p *= s.factors[k].row(idx[k])[c]
		}
		total += p
	}
	return total
}

// serveServer is the HTTP front end: a write-locked stream plus the
// epoch-swapped snapshot the read paths serve from.
type serveServer struct {
	mu     sync.Mutex // serializes stream writes (ingest, flush, save)
	stream *dismastd.Stream
	snap   atomic.Pointer[factorSnapshot]
	epoch  atomic.Int64

	events      atomic.Int64
	queries     atomic.Int64
	pagesCopied atomic.Int64 // snapshot pages copied by publishes, cumulative
	pagesTotal  atomic.Int64 // snapshot pages published (copied or shared), cumulative
	log         *slog.Logger
}

func newServeServer(stream *dismastd.Stream, log *slog.Logger) *serveServer {
	s := &serveServer{stream: stream, log: log}
	s.publishLocked(nil) // a resumed stream has a model to serve immediately
	return s
}

// publishLocked swaps in a snapshot of the live factors. rep names the
// rows the last IngestEvents changed; nil — a flush or a fresh server —
// means every row may have changed. Callers must hold s.mu. Before the
// first data it is a no-op — queries answer 503 until the first flush
// initialises the model.
func (s *serveServer) publishLocked(rep *dismastd.EventReport) {
	factors := s.stream.Factors()
	if factors == nil {
		return
	}
	prev := s.snap.Load()
	if prev == nil || (rep != nil && rep.AllChanged) {
		rep = nil
	}
	snap := &factorSnapshot{
		epoch:   s.epoch.Add(1),
		dims:    append([]int(nil), s.stream.Dims()...),
		factors: make([]pagedFactor, len(factors)),
		sweeps:  s.stream.Snapshots(),
		pending: s.stream.Pending(),
	}
	copied, total := 0, 0
	for m, f := range factors {
		var base *pagedFactor
		var changed []int
		if rep != nil {
			base = &prev.factors[m]
			if m < len(rep.Changed) {
				changed = rep.Changed[m]
			}
		}
		var c int
		snap.factors[m], c = repage(base, f, changed)
		copied += c
		total += len(snap.factors[m].pages)
	}
	s.pagesCopied.Add(int64(copied))
	s.pagesTotal.Add(int64(total))
	s.snap.Store(snap)
}

func (s *serveServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/flush", s.handleFlush)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/topk", s.handleTopK)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// eventJSON is the wire form of one event.
type eventJSON struct {
	Coords []int   `json:"coords"`
	Value  float64 `json:"value"`
}

// ingestResponse reports what one /ingest call did.
type ingestResponse struct {
	Events      int     `json:"events"`
	RowsUpdated int64   `json:"rows_updated"`
	Pending     int     `json:"pending"`
	Grew        bool    `json:"grew"`
	Dims        []int   `json:"dims"`
	Swept       bool    `json:"swept"`
	Loss        float64 `json:"loss,omitempty"` // set when this call swept
	Epoch       int64   `json:"epoch"`
}

func (s *serveServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var raw []eventJSON
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&raw); err != nil {
		http.Error(w, "body must be a JSON array of {coords, value}: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(raw) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	events := make([]dismastd.Event, len(raw))
	for i, e := range raw {
		events[i] = dismastd.Event{Coords: e.Coords, Value: e.Value}
	}
	s.mu.Lock()
	rep, err := s.stream.IngestEvents(events)
	if err != nil {
		// A rejected batch changed nothing; a failed sweep after the
		// batch applied reports the rows it already rewrote.
		if rep.RowsUpdated > 0 || rep.Grew {
			s.publishLocked(&rep)
		}
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.publishLocked(&rep)
	resp := ingestResponse{
		Events:      rep.Events,
		RowsUpdated: rep.RowsUpdated,
		Pending:     rep.Pending,
		Grew:        rep.Grew,
		Dims:        append([]int(nil), rep.Dims...), // rep.Dims is reused by the stream
		Swept:       rep.Sweep != nil,
		Epoch:       s.epoch.Load(),
	}
	if rep.Sweep != nil {
		resp.Loss = rep.Sweep.Loss
	}
	s.mu.Unlock()
	s.events.Add(int64(resp.Events))
	writeJSON(w, resp)
}

func (s *serveServer) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	rep, err := s.stream.Flush()
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.publishLocked(nil)
	epoch := s.epoch.Load()
	s.mu.Unlock()
	out := map[string]any{"swept": rep != nil, "epoch": epoch}
	if rep != nil {
		out["loss"] = rep.Loss
		out["iters"] = rep.Iters
	}
	writeJSON(w, out)
}

// loadSnapshot answers 503 until the first model exists.
func (s *serveServer) loadSnapshot(w http.ResponseWriter) *factorSnapshot {
	snap := s.snap.Load()
	if snap == nil {
		http.Error(w, "no model yet: ingest events and flush first", http.StatusServiceUnavailable)
	}
	return snap
}

// parseAt parses "i,j,k" against the snapshot dims. A coordinate may be
// "_" (wildcard) only at the position in skip (pass -1 for none).
func parseAt(q string, dims []int, skip int) ([]int, error) {
	parts := strings.Split(q, ",")
	if len(parts) != len(dims) {
		return nil, fmt.Errorf("at=%q has %d coordinates, model order is %d", q, len(parts), len(dims))
	}
	idx := make([]int, len(parts))
	for m, p := range parts {
		if m == skip {
			idx[m] = 0
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v >= dims[m] {
			return nil, fmt.Errorf("coordinate %d: %q out of range [0, %d)", m, p, dims[m])
		}
		idx[m] = v
	}
	return idx, nil
}

func (s *serveServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	idx, err := parseAt(r.URL.Query().Get("at"), snap.dims, -1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.queries.Add(1)
	writeJSON(w, map[string]any{"epoch": snap.epoch, "at": idx, "value": snap.predict(idx)})
}

// topKResult is one scored row of the target mode.
type topKResult struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

func (s *serveServer) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	mode, err := strconv.Atoi(q.Get("mode"))
	if err != nil || mode < 0 || mode >= len(snap.dims) {
		http.Error(w, fmt.Sprintf("mode=%q out of range [0, %d)", q.Get("mode"), len(snap.dims)), http.StatusBadRequest)
		return
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	idx, err := parseAt(q.Get("at"), snap.dims, mode)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Collapse the fixed modes into one rank-length weight vector, then
	// score every row of the target mode with a single dot product.
	target := &snap.factors[mode]
	weights := make([]float64, target.cols)
	for c := range weights {
		weights[c] = 1
	}
	for m := range snap.factors {
		if m == mode {
			continue
		}
		row := snap.factors[m].row(idx[m])
		for c := range weights {
			weights[c] *= row[c]
		}
	}
	top := newTopK(min(k, target.rows))
	for p, page := range target.pages {
		for o := 0; o < len(page); o += target.cols {
			row := page[o : o+target.cols]
			score := 0.0
			for c, wc := range weights {
				score += wc * row[c]
			}
			top.offer(p*pageRows+o/target.cols, score)
		}
	}
	s.queries.Add(1)
	writeJSON(w, map[string]any{"epoch": snap.epoch, "mode": mode, "results": top.sorted()})
}

// topK keeps the k best of a stream of scored rows in a bounded
// min-heap whose root is the worst kept row. "Best" is the /topk
// order: score descending, ties by ascending index.
type topK struct {
	k    int
	heap []topKResult
}

func newTopK(k int) *topK { return &topK{k: k, heap: make([]topKResult, 0, k)} }

// better reports whether a ranks ahead of b.
func better(a, b topKResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// offer considers row i with the given score.
func (t *topK) offer(i int, score float64) {
	r := topKResult{Index: i, Score: score}
	h := t.heap
	if len(h) < t.k {
		h = append(h, r)
		for c := len(h) - 1; c > 0; { // sift up: a worse row moves rootward
			p := (c - 1) / 2
			if !better(h[p], h[c]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
		t.heap = h
		return
	}
	if !better(r, h[0]) {
		return
	}
	h[0] = r
	for p := 0; ; { // sift down: the worse child moves rootward
		w := p
		if l := 2*p + 1; l < len(h) && better(h[w], h[l]) {
			w = l
		}
		if rc := 2*p + 2; rc < len(h) && better(h[w], h[rc]) {
			w = rc
		}
		if w == p {
			return
		}
		h[p], h[w] = h[w], h[p]
		p = w
	}
}

// sorted returns the kept rows best first.
func (t *topK) sorted() []topKResult {
	sort.Slice(t.heap, func(a, b int) bool { return better(t.heap[a], t.heap[b]) })
	return t.heap
}

func (s *serveServer) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"events":  s.events.Load(),
		"queries": s.queries.Load(),
		"epoch":   s.epoch.Load(),

		"publish_pages_copied": s.pagesCopied.Load(),
		"publish_pages_total":  s.pagesTotal.Load(),
	}
	if snap := s.snap.Load(); snap != nil {
		out["dims"] = snap.dims
		out["sweeps"] = snap.sweeps
		out["pending"] = snap.pending
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// saveStreamCheckpoint writes the stream's checkpoint with a temp-file
// rename, like the worker's per-step checkpoints: a crash mid-write
// never leaves a truncated model behind. Save flushes pending events
// first, so the file always sits on a sweep boundary.
func saveStreamCheckpoint(path string, stream *dismastd.Stream) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := stream.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// runServe runs the serving front end until sig delivers a shutdown
// signal, then drains and checkpoints. The injectable channel is what
// makes graceful shutdown testable in-process.
func runServe(cfg serveConfig, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	logger := obs.NewLogger(stderr, slog.LevelInfo)
	stream := dismastd.NewStream(cfg.opts)
	if cfg.statePath != "" {
		f, err := os.Open(cfg.statePath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start; the path is written on shutdown.
		case err != nil:
			return fmt.Errorf("open state: %w", err)
		default:
			stream, err = dismastd.ResumeStream(f, cfg.opts)
			f.Close()
			if err != nil {
				return fmt.Errorf("resume %s: %w", cfg.statePath, err)
			}
			logger.Info("resumed model", "path", cfg.statePath, "dims", fmt.Sprint(stream.Dims()), "sweeps", stream.Snapshots())
		}
	}
	srv := newServeServer(stream, logger)
	httpSrv, addr, err := startHTTPServer(cfg.addr, srv.mux())
	if err != nil {
		return fmt.Errorf("serve listener: %w", err)
	}
	fmt.Fprintf(stdout, "serving on %s\n", addr)
	logger.Info("serving", "addr", addr.String())
	if cfg.ready != nil {
		cfg.ready <- addr
	}

	<-sig
	logger.Info("shutdown: draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Drain overran the timeout; the final checkpoint still runs.
		logger.Warn("drain incomplete", "err", err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if cfg.statePath != "" && (stream.Factors() != nil || stream.Pending() > 0) {
		if err := saveStreamCheckpoint(cfg.statePath, stream); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		logger.Info("final checkpoint written", "path", cfg.statePath, "sweeps", stream.Snapshots())
	}
	logger.Info("serve shut down", "events", srv.events.Load(), "queries", srv.queries.Load())
	return nil
}
