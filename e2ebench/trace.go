package main

// Harness tracing. A traced run records a span around each of its own
// calls into a layer of the program (no spans are added inside the
// program) and keeps them in memory; they are written as JSONL when the
// run ends, next to the per-layer table. Per-rank phase totals that the
// distributed step already returns are written as records of their own.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one timed harness call into a layer. Spans of one pass or one
// request share a trace id; parent links a span to the call it ran
// under.
type span struct {
	Kind   string         `json:"kind"` // "span"
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Trace  int            `json:"trace"`
	Name   string         `json:"name"`
	Layer  string         `json:"layer"`
	Start  int64          `json:"start_ns"` // since the tracer was created
	Dur    int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// phaseRecord is one rank's phase total in one distributed step, as
// core.Session.Step returned it.
type phaseRecord struct {
	Kind  string `json:"kind"` // "phase"
	Trace int    `json:"trace"`
	Step  int    `json:"step"`
	Rank  int    `json:"rank"`
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Total int64  `json:"total_ns"`
}

// tracer keeps a run's spans in memory. A nil tracer records nothing,
// which is how untraced runs call the same code.
type tracer struct {
	t0     time.Time
	spans  []span
	phases []phaseRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{Kind: "span", ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Layer: layer, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id, attaching attrs (which may be nil).
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.Dur = int64(time.Since(t.t0)) - sp.Start
	sp.Attrs = attrs
}

// record stores an already measured span.
func (t *tracer) record(name string, parent, trace int, start time.Time, d time.Duration, attrs map[string]any) {
	if t == nil {
		return
	}
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{Kind: "span", ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Layer: layer,
		Start: int64(start.Sub(t.t0)), Dur: int64(d), Attrs: attrs})
}

func (t *tracer) phase(rec phaseRecord) {
	if t != nil {
		rec.Kind = "phase"
		t.phases = append(t.phases, rec)
	}
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range t.phases {
		if err := enc.Encode(&t.phases[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerRow is one line of the per-layer table: the metric, the
// end-to-end metric it should move, and on which workload.
type layerRow struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Moves  string  `json:"moves"`
}

// splitPart is one share of a traced step's wall time.
type splitPart struct {
	Part string  `json:"part"`
	Ms   float64 `json:"ms"`
}

// layerReport is the per-layer table of a traced run, plus — for the
// stream workloads — one step's wall time split into its layers.
type layerReport struct {
	Rows      []layerRow  `json:"rows"`
	Split     []splitPart `json:"step_split,omitempty"`
	SplitWall float64     `json:"step_split_wall_ms,omitempty"`
	Predicted string      `json:"predicted_split,omitempty"`
	Notes     []string    `json:"notes,omitempty"`
}

// moves is the layer → end-to-end map: which end-to-end metric each
// per-layer metric should move, and on which workload.
var moves = map[string]string{
	"mttkrp.busy_ms":          "step_ms on netflix-stream (by hand), weakly on book-stream",
	"mttkrp.entries":          "step_ms on netflix-stream (by hand), weakly on book-stream",
	"mttkrp.ns_per_entry":     "step_ms on netflix-stream (by hand), weakly on book-stream",
	"layout.compile_ms":       "step_ms on netflix-stream (by hand), weakly on book-stream",
	"mat.solve_ms":            "step_ms on book-stream",
	"mat.rows_solved":         "step_ms on book-stream",
	"cluster.allreduce_ms":    "step_ms on book-stream",
	"cluster.exchange_ms":     "step_ms on book-stream",
	"cluster.bytes":           "step_ms on book-stream",
	"cluster.max_rank_bytes":  "step_ms on book-stream",
	"cluster.messages":        "step_ms on book-stream",
	"cluster.loss_wait_ms":    "step_ms on book-stream",
	"core.rank_skew_ms":       "step_ms on book-stream",
	"partition.imbalance":     "step_ms on book-stream",
	"core.plan_ms":            "step_ms, stream_s on both streams",
	"tensor.complement_ms":    "step_ms, stream_s on both streams",
	"core.step_ms":            "step_ms, stream_s on both streams",
	"core.unattributed_ms":    "step_ms, stream_s on both streams",
	"cp.init_ms":              "setup_s on all workloads",
	"cp.iters":                "setup_s on all workloads",
	"dtd.apply_ms":            "ingest_p50_ms on serve-mixed",
	"dtd.rows_per_batch":      "ingest_p50_ms on serve-mixed",
	"dtd.sweep_ms":            "ingest_p99_ms on serve-mixed",
	"tensor.build_ms":         "ingest_p99_ms on serve-mixed",
	"serve.sweeps":            "ingest_p99_ms on serve-mixed",
	"serve.ingest_service_ms": "ingest_p50_ms, peak_rss_mb on serve-mixed",
	"serve.ingest_wait_ms":    "ingest_p50_ms on serve-mixed",
	"serve.publish_ms":        "ingest_p50_ms, peak_rss_mb on serve-mixed",
	"serve.predict_ms":        "query_p50_ms, query_p99_ms on serve-mixed",
	"serve.topk_ms":           "query_p50_ms, query_p99_ms on serve-mixed",
	"serve.query_wait_ms":     "query_p50_ms, query_p99_ms on serve-mixed",
	"dtd.step_ms":             "baseline and correctness reference",
	"loadgen.lag_ms":          "none: checks the generator, not the program",
	"trace.overhead_pct":      "none: cost of tracing itself",
}

// fillRows builds the table from a traced run's values in catalogue
// order.
func (r *layerReport) fillRows(values map[string]float64) {
	r.Rows = r.Rows[:0]
	for _, d := range perLayer {
		r.Rows = append(r.Rows, layerRow{Metric: d.name, Value: values[d.name], Unit: d.unit, Moves: moves[d.name]})
	}
}

// print writes the table for a reader; unattributed time and tracing
// overhead are rows like any other and are never left out.
func (r *layerReport) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nper-layer metrics, %s (traced run):\n", workload)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-24s %14.4f %-6s -> %s\n", row.Metric, row.Value, row.Unit, row.Moves)
	}
	if len(r.Split) > 0 {
		fmt.Fprintf(w, "one traced step, wall %.3f ms:\n", r.SplitWall)
		sum := 0.0
		for _, p := range r.Split {
			sum += p.Ms
			fmt.Fprintf(w, "  %-24s %10.3f ms %5.1f%%\n", p.Part, p.Ms, 100*p.Ms/r.SplitWall)
		}
		fmt.Fprintf(w, "  %-24s %10.3f ms (parts sum to the step wall)\n", "sum", sum)
		fmt.Fprintf(w, "predicted split: %s\n", r.Predicted)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
