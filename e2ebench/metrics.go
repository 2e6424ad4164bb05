package main

// The metric catalogue and the summary statistics every workload
// reports with. The names and units here are the ones BENCHMARK.json
// lists; the self-test keeps the two in step.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_ms", "ms"},
	{"stream_s", "s"},
	{"fit", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer are the single-layer metrics, reported by every traced run
// (--trace 1). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"mttkrp.busy_ms", "ms"},
	{"mttkrp.entries", "count"},
	{"mttkrp.ns_per_entry", "ns"},
	{"layout.compile_ms", "ms"},
	{"mat.solve_ms", "ms"},
	{"mat.rows_solved", "count"},
	{"cluster.allreduce_ms", "ms"},
	{"cluster.exchange_ms", "ms"},
	{"cluster.bytes", "bytes"},
	{"cluster.max_rank_bytes", "bytes"},
	{"cluster.messages", "count"},
	{"cluster.loss_wait_ms", "ms"},
	{"core.rank_skew_ms", "ms"},
	{"partition.imbalance", "ratio"},
	{"core.plan_ms", "ms"},
	{"tensor.complement_ms", "ms"},
	{"core.step_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"cp.init_ms", "ms"},
	{"cp.iters", "count"},
	{"dtd.apply_ms", "ms"},
	{"dtd.rows_per_batch", "count"},
	{"dtd.sweep_ms", "ms"},
	{"tensor.build_ms", "ms"},
	{"serve.sweeps", "count"},
	{"serve.ingest_service_ms", "ms"},
	{"serve.ingest_wait_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.predict_ms", "ms"},
	{"serve.topk_ms", "ms"},
	{"serve.query_wait_ms", "ms"},
	{"dtd.step_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is how a timing metric was summarised: the sample count and,
// for a tail percentile, the percentile the sample could support.
type sample struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile,omitempty"`
}

// outcome is what one workload run produced, before it is printed.
type outcome struct {
	values   map[string]float64
	samples  map[string]sample
	attempts int64
	failures []string // one line per failed operation or check
	layers   *layerReport
	inputs   string // hash of the run's inputs
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]sample{}}
}

// fail records one failed operation or correctness check. Nothing is
// dropped: every failure counts against success_rate and the run's
// correct flag.
func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.failures = append(o.failures, msg)
	fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", msg)
}

// check counts one correctness check as an attempted operation and
// records it as failed when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempts++
	if !ok {
		o.fail(format, args...)
	}
}

// timing records a latency sample set under name as its median, or as
// the tail percentile p — lowered to the highest percentile that keeps
// at least ten samples beyond it when the set is too small for p.
func (o *outcome) timing(name string, ds []time.Duration, p float64, unit time.Duration) {
	s := sample{N: len(ds)}
	if p != 0.5 {
		p = supportedPercentile(len(ds), p)
		s.Percentile = 100 * p
	}
	o.values[name] = float64(quantile(ds, p)) / float64(unit)
	o.samples[name] = s
}

// supportedPercentile caps p so that at least ten of n samples lie
// beyond it.
func supportedPercentile(n int, p float64) float64 {
	if limit := 1 - 10/float64(n); limit < p {
		return math.Max(0.5, limit)
	}
	return p
}

// quantile returns the p-quantile of ds by linear interpolation between
// the closest ranks, or 0 for no samples. ds is sorted in place.
func quantile(ds []time.Duration, p float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	switch len(ds) {
	case 0:
		return 0
	case 1:
		return ds[0]
	}
	pos := p * float64(len(ds)-1)
	lo := int(pos)
	if lo >= len(ds)-1 {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS resets this process's VmHWM to its current RSS, so a
// later peakRSSMB("self") reads the peak since now.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// finite reports whether every value is a finite number.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
