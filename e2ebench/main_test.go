package main

// Self-tests of the benchmark: inputs are a pure function of the seed,
// and the metrics a run emits are exactly the ones BENCHMARK.json
// declares.

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// scaled shrinks a shape for the self-tests, keeping its proportions.
func (s shape) scaled(f float64) shape {
	for m := range s.dims {
		s.dims[m] = max(8, int(float64(s.dims[m])*f))
	}
	s.nnz = max(64, int(float64(s.nnz)*f))
	return s
}

// tiny shrinks a stream workload so a test run takes about a second.
func tiny(cfg streamConfig) streamConfig {
	cfg.shape = cfg.shape.scaled(0.02)
	cfg.setups = 1
	return cfg
}

func TestSameSeedSameInputs(t *testing.T) {
	s := netflixShape.scaled(0.02)
	a, err := genStream(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStream(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash {
		t.Fatalf("stream input hashes differ for one seed: %s vs %s", a.hash, b.hash)
	}
	for i := 0; i < a.seq.Len(); i++ {
		if !reflect.DeepEqual(a.seq.Snapshot(i), b.seq.Snapshot(i)) {
			t.Fatalf("snapshot %d differs for one seed", i)
		}
	}

	sv := serveShape.scaled(0.05)
	c, err := genServe(sv, 7, defaultLoad, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := genServe(sv, 7, defaultLoad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.hash != d.hash {
		t.Fatalf("serve input hashes differ for one seed: %s vs %s", c.hash, d.hash)
	}
	if !reflect.DeepEqual(c.warm, d.warm) || !reflect.DeepEqual(c.batches, d.batches) ||
		!reflect.DeepEqual(c.ingestDue, d.ingestDue) || !reflect.DeepEqual(c.queries, d.queries) {
		t.Fatal("serve inputs or schedules differ for one seed")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	s := netflixShape.scaled(0.02)
	a, err := genStream(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStream(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash == b.hash {
		t.Fatal("stream inputs identical for seeds 7 and 8")
	}
	sv := serveShape.scaled(0.05)
	c, err := genServe(sv, 7, defaultLoad, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := genServe(sv, 8, defaultLoad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.hash == d.hash {
		t.Fatal("serve inputs identical for seeds 7 and 8")
	}
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func catalogue(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func emitted(t *testing.T, o *outcome, traced bool) map[string]string {
	t.Helper()
	res, err := o.result(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("run failed its correctness gate: %v", o.failures)
	}
	m := map[string]string{}
	for name, v := range res.Metrics {
		m[name] = v.Unit
	}
	return m
}

func TestDeclaredWorkloadsRun(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the harness does not run", w.Name)
		}
	}
}

func TestCatalogueMatchesBenchmark(t *testing.T) {
	e2e, layer := declared(t)
	if got := catalogue(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
	}
	if got := catalogue(perLayer); !reflect.DeepEqual(got, layer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, layer)
	}
	for _, d := range perLayer {
		if moves[d.name] == "" {
			t.Errorf("per-layer metric %s has no entry in the layer → end-to-end map", d.name)
		}
	}
}

func TestStreamEmitsDeclaredMetrics(t *testing.T) {
	e2e, layer := declared(t)
	for _, cfg := range []streamConfig{tiny(netflixStream), tiny(bookStream)} {
		o, err := runStream(cfg, 3, 0.2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := emitted(t, o, false); !reflect.DeepEqual(got, e2e) {
			t.Errorf("%s untraced emits %v, want %v", cfg.shape.name, keys(got), keys(e2e))
		}
		o, err = runStream(cfg, 3, 0.2, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got := emitted(t, o, true); !reflect.DeepEqual(got, layer) {
			t.Errorf("%s traced emits %v, want %v", cfg.shape.name, keys(got), keys(layer))
		}
		if sum := splitSum(o.layers); math.Abs(sum-o.layers.SplitWall) > 1e-6 {
			t.Errorf("%s: step split sums to %v ms, step wall %v ms", cfg.shape.name, sum, o.layers.SplitWall)
		}
	}
}

func TestServeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the worker binary")
	}
	e2e, layer := declared(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "worker")
	build := exec.Command("go", "build", "-o", bin, "dismastd/cmd/worker")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build worker: %v", err)
	}
	cfg := serveMixed
	cfg.shape = cfg.shape.scaled(0.05)
	cfg.setups = 1
	o, err := runServe(cfg, 3, 1, bin, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := emitted(t, o, false); !reflect.DeepEqual(got, e2e) {
		t.Errorf("untraced emits %v, want %v", keys(got), keys(e2e))
	}
	o, err = runServe(cfg, 3, 1, bin, dir, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if got := emitted(t, o, true); !reflect.DeepEqual(got, layer) {
		t.Errorf("traced emits %v, want %v", keys(got), keys(layer))
	}
}

func splitSum(r *layerReport) float64 {
	s := 0.0
	for _, p := range r.Split {
		s += p.Ms
	}
	return s
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
