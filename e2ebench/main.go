// Command e2ebench is the repository's end-to-end benchmark. It drives
// the public dismastd.Stream API and the `worker -serve-http` binary
// from outside, on three workloads, and prints one JSON result line:
//
//	e2ebench --workload book-stream --seed 1 --seconds 30 --trace 0
//	e2ebench --compare old.json new.json
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics of the same inputs. Every
// run also writes a result record — host metadata, sample counts, the
// per-layer table and its failures — and traced runs a JSONL span file,
// under -out. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var workloads = []string{"netflix-stream", "book-stream", "serve-mixed"}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Meta identifies the host and build a result came from; results are
// comparable only when the CPU models match.
type Meta struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Inputs     string `json:"inputs_sha256"`
}

// Record is the full result file of one run.
type Record struct {
	Meta     Meta              `json:"meta"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Result   Result            `json:"result"`
	Samples  map[string]sample `json:"samples,omitempty"`
	Layers   *layerReport      `json:"layers,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 makes a traced run and reports per-layer metrics")
	worker := fs.String("worker", "", "path of the built worker binary (serve-mixed)")
	root := fs.String("root", ".", "repository root; results go to <root>/.bench_out")
	commit := fs.String("commit", "unknown", "commit of the tree under test, recorded with the result")
	compare := fs.Bool("compare", false, "compare two result records given as arguments: old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: --compare takes two result files")
			return 2
		}
		code, err := compareRecords(stdout, fs.Arg(0), fs.Arg(1), filepath.Join(*root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		return code
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	outDir := filepath.Join(*root, ".bench_out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var o *outcome
	var err error
	secs := float64(*seconds)
	switch *workload {
	case "netflix-stream":
		o, err = runStream(netflixStream, *seed, secs, tr)
	case "book-stream":
		o, err = runStream(bookStream, *seed, secs, tr)
	case "serve-mixed":
		o, err = runServe(serveMixed, *seed, secs, *worker, outDir, tr)
	default:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	rec := Record{
		Meta:     hostMeta(*commit, *seed, *seconds, o.inputs),
		Workload: *workload,
		Trace:    tr != nil,
		Samples:  o.samples,
		Layers:   o.layers,
		Failures: o.failures,
	}
	rec.Result, err = o.result(tr != nil)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))
	if err := writeJSON(base+".json", rec); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if tr != nil {
		if err := tr.writeJSONL(base + ".trace.jsonl"); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		if o.layers != nil {
			o.layers.print(stderr, *workload)
		}
	}
	fmt.Fprintf(stderr, "e2ebench: record %s.json\n", base)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result builds the printed result: exactly the end-to-end metrics, or
// exactly the per-layer metrics of a traced run.
func (o *outcome) result(traced bool) (Result, error) {
	attempts := max(o.attempts, 1)
	o.values["success_rate"] = 1 - float64(len(o.failures))/float64(attempts)
	defs := endToEnd
	values := o.values
	if traced {
		defs = perLayer
		values = map[string]float64{}
		if o.layers != nil {
			for _, r := range o.layers.Rows {
				values[r.Metric] = r.Value
			}
		}
	}
	res := Result{
		Correct:   len(o.failures) == 0,
		Attempted: attempts,
		Failed:    int64(len(o.failures)),
		Metrics:   map[string]Metric{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			if res.Correct {
				return res, fmt.Errorf("metric %s was not measured", d.name)
			}
			v = 0 // a failed run stops early; its result says so
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func hostMeta(commit string, seed uint64, seconds int, inputs string) Meta {
	return Meta{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Inputs:     inputs,
	}
}

// cpuModel returns the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
