package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specguard/internal/bench"
	"specguard/internal/core"
)

// The self-check runs every workload at a small size, traced and
// untraced, and shows that each output check rejects a deliberately
// corrupted result.

func smallConfig(t *testing.T, workload string, traced bool) config {
	dir := t.TempDir()
	return config{
		workload: workload,
		seed:     7,
		seconds:  0.01,
		trace:    traced,
		workdir:  dir,
		spans:    filepath.Join(dir, "spans.jsonl"),
		small:    true,
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, layers.go %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	return endToEnd, perLayerNames
}

func TestSmallWorkloads(t *testing.T) {
	endToEnd, layers := benchmarkMetrics(t)
	for _, w := range []string{"paper", "sweep", "serve"} {
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t, w, traced)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(rep.problems) != 0 {
				t.Errorf("%s traced=%v: checks failed: %v", w, traced, rep.problems)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w, traced, rep.attempted, rep.failed)
			}
			want := endToEnd
			if traced {
				want = layers
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.metrics), len(want))
			}
			for _, name := range want {
				m, ok := rep.metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %g", w, name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}

// expectFailure runs check on a fresh report and requires a problem that
// mentions want.
func expectFailure(t *testing.T, what, want string, check func(rep *report)) {
	t.Helper()
	rep := newReport()
	check(rep)
	for _, p := range rep.problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Errorf("%s: no check failed with %q (problems: %v)", what, want, rep.problems)
}

func TestPaperChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	s := paperSuiteFor(true)
	plan := paperPlan(s)
	r := newSerialRunner()
	cells, err := runnerRound(ctx, r, s, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkPaperCells(rep, s, cells)
	if err := checkSemantics(rep, s, r); err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) != 0 {
		t.Fatalf("clean round fails its checks: %v", rep.problems)
	}
	find := func(kind cellKind, sc bench.Scheme) int {
		for i, c := range cells {
			if c.kind == kind && c.scheme == sc {
				return i
			}
		}
		t.Fatalf("no cell of kind %d scheme %s", kind, sc)
		return -1
	}
	corrupt := func(i int, f func(c *paperCell)) []paperCell {
		out := append([]paperCell(nil), cells...)
		f(&out[i])
		return out
	}

	bad := corrupt(find(cellTable, bench.SchemePerfect), func(c *paperCell) { c.stats.Mispredicts = 3 })
	expectFailure(t, "perfect mispredicts", "perfect prediction mispredicted", func(rep *report) { checkPaperCells(rep, s, bad) })
	bad = corrupt(find(cellTable, bench.SchemeTwoBit), func(c *paperCell) { c.stats.Committed++ })
	expectFailure(t, "commit count", "other scheme of the same program", func(rep *report) { checkPaperCells(rep, s, bad) })
	bad = corrupt(find(cellAblation, bench.SchemeProposed), func(c *paperCell) { c.stats.Cycles = 1 })
	expectFailure(t, "IPC bound", "exceeds the fetch width", func(rep *report) { checkPaperCells(rep, s, bad) })
	bad = corrupt(find(cellLeak, bench.SchemeProposed), func(c *paperCell) { c.stats.Cycles++ })
	if diffCells(s, cells, bad) == "" {
		t.Error("traced-against-Runner comparison accepts different Stats")
	}

	// Semantics: perturb the optimized program's final state.
	w := s.kernels[0]
	prof, err := r.ProfileOf(w)
	if err != nil {
		t.Fatal(err)
	}
	orig, opt := w.Build(), w.Build()
	if _, err := core.Optimize(opt, prof, r.Model, w.Opt); err != nil {
		t.Fatal(err)
	}
	a, err := finalState(w, orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := finalState(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateDiff(orig, a, b); d != "" {
		t.Fatalf("optimized %s differs before corruption: %s", w.Name, d)
	}
	for _, rg := range orig.Regions {
		if rg.Name == "out" {
			v, _ := b.ReadWord(rg.Base)
			b.WriteWord(rg.Base, v+1)
			if d := stateDiff(orig, a, b); !strings.Contains(d, "output word") {
				t.Errorf("corrupted output word not detected: %q", d)
			}
			b.WriteWord(rg.Base, v)
		}
	}
	for _, f := range orig.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, reg := range in.Defs() {
					if reg.IsInt() && reg.Index() != 0 {
						b.SetReg(reg, b.Reg(reg)+1)
						if d := stateDiff(orig, a, b); !strings.Contains(d, "register") {
							t.Errorf("corrupted register %v not detected: %q", reg, d)
						}
						return
					}
				}
			}
		}
	}
}

func TestSweepChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	kernels := sweepKernels(true)
	grids, err := drawGrids(3, true)
	if err != nil {
		t.Fatal(err)
	}
	env, err := setupSweep(kernels, true)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := exploreRound(ctx, env.runner, grids, kernels, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := env.traces
	clean := newReport()
	checkSweep(clean, grids, ops, traces)
	if len(clean.problems) != 0 {
		t.Fatalf("clean round fails its checks: %v", clean.problems)
	}
	// Each corruption works on a deep copy of the reports.
	corrupt := func(f func(ops []sweepOp)) []sweepOp {
		out := make([]sweepOp, len(ops))
		for i, op := range ops {
			data, _ := json.Marshal(op.rep)
			out[i] = op
			out[i].rep = nil
			if err := json.Unmarshal(data, &out[i].rep); err != nil {
				t.Fatal(err)
			}
		}
		f(out)
		return out
	}
	check := func(ops []sweepOp) func(rep *report) {
		return func(rep *report) { checkSweep(rep, grids, ops, traces) }
	}
	bad := corrupt(func(ops []sweepOp) { ops[0].rep.Points[1].Cells[0].Stats.ICacheMisses++ })
	expectFailure(t, "lane against single-lane run", "differs from a single-lane run", check(bad))
	bad = corrupt(func(ops []sweepOp) { ops[0].rep.Points[0].Cells[0].Stats.Committed++ })
	expectFailure(t, "commit count", "other lanes of", check(bad))
	bad = corrupt(func(ops []sweepOp) { ops[0].rep.Points[0].IPC *= 1.01 })
	expectFailure(t, "point IPC", "harmonic mean", check(bad))
	bad = corrupt(func(ops []sweepOp) {
		r := ops[0].rep
		r.Frontier = nil
		for i := range r.Points {
			if !r.Points[i].Pareto {
				r.Frontier = append(r.Frontier, i)
			}
		}
	})
	expectFailure(t, "frontier", "on frontier", check(bad))
}

func TestServeChecksRejectCorruption(t *testing.T) {
	sched, err := drawSchedule(7, serveShapeFor(true))
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServe(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	if err := env.newRound(0); err != nil {
		t.Fatal(err)
	}
	before := env.counts()
	xs := env.serveRound(sched)
	after := env.counts()
	n := serveCounts{simRuns: after.simRuns - before.simRuns, coalesced: after.coalesced - before.coalesced}
	ref, err := referenceStats(sched)
	if err != nil {
		t.Fatal(err)
	}
	clean := newReport()
	stats := replyStats{}
	checkServeRound(clean, sched, xs, n, stats)
	stats.check(clean, ref)
	if len(clean.problems) != 0 {
		t.Fatalf("clean round fails its checks: %v", clean.problems)
	}
	if a, f := countExchanges(xs); a != len(xs) || f != 0 {
		t.Fatalf("clean round: attempted %d failed %d", a, f)
	}

	index := func(hit bool) int {
		for i, x := range xs {
			if !x.sweep && x.req.hit == hit {
				return i
			}
		}
		t.Fatalf("no request with hit=%v", hit)
		return -1
	}
	edit := func(i int, f func(m map[string]any)) []exchange {
		out := append([]exchange(nil), xs...)
		var m map[string]any
		if err := json.Unmarshal(out[i].body, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out[i].body, _ = json.Marshal(m)
		return out
	}
	check := func(xs []exchange, n serveCounts) func(rep *report) {
		return func(rep *report) {
			stats := replyStats{}
			checkServeRound(rep, sched, xs, n, stats)
			stats.check(rep, ref)
		}
	}

	bad := append([]exchange(nil), xs...)
	bad[0].status = 500
	if _, f := countExchanges(bad); f != 1 {
		t.Errorf("a 500 reply is not counted as failed")
	}
	bad = edit(index(false), func(m map[string]any) { m["stats"].(map[string]any)["Cycles"] = 1.0 })
	expectFailure(t, "Stats against RunSpecs", "RunSpecs gives", check(bad, n))
	bad = edit(index(false), func(m map[string]any) { m["key"] = strings.Repeat("0", 64) })
	expectFailure(t, "content key", "not the SHA-256", check(bad, n))
	bad = edit(index(true), func(m map[string]any) { m["pred_accuracy"] = 0.5 })
	expectFailure(t, "hit body", "differs from the miss that stored it", check(bad, n))
	bad = edit(index(true), func(m map[string]any) { m["source"] = "sim" })
	expectFailure(t, "hit source", "scheduled as", check(bad, n))
	expectFailure(t, "simulation count", "distinct keys", check(xs, serveCounts{simRuns: n.simRuns + 1}))
}
