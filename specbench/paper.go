package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"specguard/internal/analysis"
	"specguard/internal/bench"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// The paper workload regenerates the paper's experiment on a fresh
// bench.Runner every round: the 4 kernels × 3 schemes of Tables 1–4, the
// seven-configuration optimizer ablation and the speculative-leak
// ablation. It is the only workload in which the front end
// (interp.Predecode, trace.Capture with profile recording), the
// optimizer (core.Optimize) and the single-lane pipeline.Pipeline.Run
// do most of the work; pipeline.Batch and HTTP stay idle. Its inputs
// are fixed, so it ignores the seed.
//
// One operation is one simulation cell. The untraced round calls the
// Runner's per-cell entry points (RunContext, RunProposedOptsContext,
// RunLeakContext) in the order RunAll, RunProposedOptsAll and
// RunLeakAll use with Parallelism 1 — the same serial work, with a clock
// around each cell. No cell fails on these fixed inputs; a cell that
// returns an error ends the run with that error and no result, so
// failed reads 0 in every printed result.

type ablationConfig struct {
	name string
	opts core.Options
}

// ablationConfigs disables one optimizer arm at a time, as sgbench's
// ablation table does: the title's "individual/combined effects".
var ablationConfigs = []ablationConfig{
	{"combined", core.Options{}},
	{"no-likely", core.Options{DisableLikely: true}},
	{"no-guarding", core.Options{DisableGuarding: true}},
	{"no-splitting", core.Options{DisableSplitting: true}},
	{"no-speculation", core.Options{DisableSpeculation: true}},
	{"likely-only", core.Options{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true}},
	{"guarding-only", core.Options{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true}},
}

var schemes = []bench.Scheme{bench.SchemeTwoBit, bench.SchemeProposed, bench.SchemePerfect}

type paperSuite struct {
	kernels []bench.Workload
	configs []ablationConfig
	leaks   []bench.Workload
}

func paperSuiteFor(small bool) paperSuite {
	if small {
		return paperSuite{
			kernels: []bench.Workload{bench.Grep()},
			configs: ablationConfigs[:2],
			leaks:   []bench.Workload{bench.Victim()},
		}
	}
	return paperSuite{kernels: bench.All(), configs: ablationConfigs, leaks: bench.LeakWorkloads()}
}

type cellKind int

const (
	cellTable cellKind = iota
	cellAblation
	cellLeak
)

// paperCell is one simulation of a round.
type paperCell struct {
	kind     cellKind
	workload bench.Workload
	scheme   bench.Scheme
	config   int // index into paperSuite.configs for ablation cells
	stats    pipeline.Stats
}

func (c paperCell) label(s paperSuite) string {
	switch c.kind {
	case cellAblation:
		return fmt.Sprintf("ablation %s/%s", s.configs[c.config].name, c.workload.Name)
	case cellLeak:
		return fmt.Sprintf("leak %s/%s", c.workload.Name, c.scheme)
	}
	return fmt.Sprintf("%s/%s", c.workload.Name, c.scheme)
}

// paperPlan lists the round's cells in Runner order, without Stats.
func paperPlan(s paperSuite) []paperCell {
	var cells []paperCell
	for _, w := range s.kernels {
		for _, sc := range schemes {
			cells = append(cells, paperCell{kind: cellTable, workload: w, scheme: sc})
		}
	}
	for i := range s.configs {
		for _, w := range s.kernels {
			cells = append(cells, paperCell{kind: cellAblation, workload: w, scheme: bench.SchemeProposed, config: i})
		}
	}
	for _, w := range s.leaks {
		for _, sc := range schemes {
			cells = append(cells, paperCell{kind: cellLeak, workload: w, scheme: sc})
		}
	}
	return cells
}

func newSerialRunner() *bench.Runner {
	r := bench.NewRunner()
	r.Parallelism = 1
	return r
}

// runnerRound runs every cell of plan on r through the Runner's public
// entry points, appending each cell's latency in milliseconds to lat.
func runnerRound(ctx context.Context, r *bench.Runner, s paperSuite, plan []paperCell, lat *[]float64) ([]paperCell, error) {
	out := make([]paperCell, len(plan))
	for i, c := range plan {
		start := time.Now()
		var err error
		switch c.kind {
		case cellTable:
			var res bench.Result
			res, err = r.RunContext(ctx, c.workload, c.scheme)
			c.stats = res.Stats
		case cellAblation:
			var res bench.Result
			res, err = r.RunProposedOptsContext(ctx, c.workload, s.configs[c.config].opts)
			c.stats = res.Stats
		case cellLeak:
			var res bench.LeakResult
			res, err = r.RunLeakContext(ctx, c.workload, c.scheme)
			c.stats = res.Stats
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label(s), err)
		}
		if lat != nil {
			*lat = append(*lat, ms(time.Since(start)))
		}
		out[i] = c
	}
	return out, nil
}

func runPaper(cfg config) (*report, error) {
	ctx := context.Background()
	suite := paperSuiteFor(cfg.small)
	plan := paperPlan(suite)
	var tablePlan []paperCell
	for _, c := range plan {
		if c.kind == cellTable {
			tablePlan = append(tablePlan, c)
		}
	}
	// Set-up is a warm-up suite: the table cells on a throwaway Runner,
	// which builds every kernel's IR prototype and warms the heap.
	setup, _, err := setupTimes(func() (struct{}, error) {
		_, err := runnerRound(ctx, newSerialRunner(), suite, tablePlan, nil)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if cfg.trace {
		return rep, tracedPaper(ctx, cfg, suite, plan, rep)
	}

	var rounds [][]paperCell
	var first *bench.Runner
	var lat []float64
	t, err := measure(cfg.seconds, nil, func(int) error {
		r := newSerialRunner()
		cells, err := runnerRound(ctx, r, suite, plan, &lat)
		rep.attempted += len(plan)
		if err != nil {
			return err
		}
		rounds = append(rounds, cells)
		if first == nil {
			first = r
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	var instrs int64
	for _, cells := range rounds {
		for _, c := range cells {
			instrs += c.stats.Committed
		}
	}
	setCommon(rep, setup, t, len(lat), instrs, lat)

	checkPaperCells(rep, suite, rounds[0])
	for i, cells := range rounds[1:] {
		if d := diffCells(suite, rounds[0], cells); d != "" {
			rep.fail("round %d differs from round 0: %s", i+1, d)
		}
	}
	if err := checkSemantics(rep, suite, first); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPaperCells applies the properties every round must have: 2-bitBP
// and PerfectBP commit the same instructions, PerfectBP mispredicts
// nothing, and no cell commits more than the fetch width per cycle.
func checkPaperCells(rep *report, s paperSuite, cells []paperCell) {
	width := float64(machine.R10000().IssueWidth)
	committed := map[string]int64{}
	for _, c := range cells {
		st := c.stats
		if st.Cycles <= 0 || st.Committed <= 0 {
			rep.fail("%s: empty simulation (cycles %d, committed %d)", c.label(s), st.Cycles, st.Committed)
			continue
		}
		if ipc := float64(st.Committed) / float64(st.Cycles); ipc > width {
			rep.fail("%s: IPC %.3f exceeds the fetch width %g", c.label(s), ipc, width)
		}
		if c.kind == cellAblation {
			continue
		}
		if c.scheme == bench.SchemePerfect && st.Mispredicts != 0 {
			rep.fail("%s: perfect prediction mispredicted %d branches", c.label(s), st.Mispredicts)
		}
		if c.scheme == bench.SchemeProposed {
			continue
		}
		key := fmt.Sprintf("%d/%s", c.kind, c.workload.Name)
		if n, ok := committed[key]; !ok {
			committed[key] = st.Committed
		} else if n != st.Committed {
			rep.fail("%s: commits %d instructions, the other scheme of the same program %d", c.label(s), st.Committed, n)
		}
	}
}

// diffCells describes the first cell whose Stats differ between two
// rounds, or returns "".
func diffCells(s paperSuite, a, b []paperCell) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d cells against %d", len(a), len(b))
	}
	for i := range a {
		ja, _ := json.Marshal(a[i].stats)
		jb, _ := json.Marshal(b[i].stats)
		if string(ja) != string(jb) {
			return fmt.Sprintf("%s: Stats %s against %s", a[i].label(s), ja, jb)
		}
	}
	return ""
}

// checkSemantics runs every distinct optimized program of the round and
// its original on interp.Machine with the kernel's input, and checks that
// both leave the same values in the registers the original uses and in
// its output region — the optimizer's semantics-preservation property,
// computed without the timing model.
func checkSemantics(rep *report, s paperSuite, r *bench.Runner) error {
	model := r.Model
	type job struct {
		w    bench.Workload
		opts core.Options
		name string
	}
	var jobs []job
	for _, w := range s.kernels {
		jobs = append(jobs, job{w, w.Opt, "default"})
		for _, c := range s.configs {
			jobs = append(jobs, job{w, c.opts, c.name})
		}
	}
	for _, w := range s.leaks {
		jobs = append(jobs, job{w, w.Opt, "default"})
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		prof, err := r.ProfileOf(j.w)
		if err != nil {
			return err
		}
		p := j.w.Build()
		if _, err := core.Optimize(p, prof, model, j.opts); err != nil {
			return fmt.Errorf("optimizing %s: %w", j.w.Name, err)
		}
		key := fmt.Sprintf("%s/%016x", j.w.Name, p.Fingerprint())
		if seen[key] {
			continue
		}
		seen[key] = true
		if d, err := semanticDiff(j.w, j.w.Build(), p); err != nil {
			return err
		} else if d != "" {
			rep.fail("optimized %s (%s) changes the program's result: %s", j.w.Name, j.name, d)
		}
	}
	return nil
}

// finalState runs p to completion on the predecoded machine.
func finalState(w bench.Workload, p *prog.Program) (*interp.Machine, error) {
	code, err := interp.Predecode(p, nil)
	if err != nil {
		return nil, fmt.Errorf("predecoding %s: %w", w.Name, err)
	}
	m := code.NewMachine(interp.Options{})
	if w.Init != nil {
		if err := w.Init(m); err != nil {
			return nil, fmt.Errorf("initializing %s: %w", w.Name, err)
		}
	}
	if _, err := m.Run(nil); err != nil {
		return nil, fmt.Errorf("running %s: %w", w.Name, err)
	}
	return m, nil
}

// semanticDiff compares the final state of the original and the
// optimized program, returning "" when they agree.
func semanticDiff(w bench.Workload, orig, opt *prog.Program) (string, error) {
	a, err := finalState(w, orig)
	if err != nil {
		return "", err
	}
	b, err := finalState(w, opt)
	if err != nil {
		return "", err
	}
	return stateDiff(orig, a, b), nil
}

// stateDiff compares two final states over the registers orig uses and
// orig's "out" regions.
func stateDiff(orig *prog.Program, a, b *interp.Machine) string {
	regs := map[isa.Reg]bool{}
	var buf []isa.Reg
	for _, f := range orig.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				buf = in.AppendUses(buf[:0])
				buf = in.AppendDefs(buf)
				for _, r := range buf {
					regs[r] = true
				}
			}
		}
	}
	for r := range regs {
		if va, vb := regBits(a, r), regBits(b, r); va != vb {
			return fmt.Sprintf("register %v: %#x against %#x", r, va, vb)
		}
	}
	outs := 0
	for _, rg := range orig.Regions {
		if rg.Name != "out" {
			continue
		}
		outs++
		for addr := rg.Base; addr < rg.End(); addr += 8 {
			va, _ := a.ReadWord(addr)
			vb, _ := b.ReadWord(addr)
			if va != vb {
				return fmt.Sprintf("output word %#x: %#x against %#x", addr, va, vb)
			}
		}
	}
	if outs == 0 {
		return "the program declares no output region"
	}
	return ""
}

func regBits(m *interp.Machine, r isa.Reg) uint64 {
	switch {
	case r.IsInt():
		return uint64(m.Reg(r))
	case r.IsFP():
		return math.Float64bits(m.FReg(r))
	}
	if m.Pred(r) {
		return 1
	}
	return 0
}

// ---- traced variant ----------------------------------------------------

// decomposed runs the paper's round by calling each layer directly,
// mirroring bench.Runner step by step (profile capture seeding the trace
// cache, one capture per distinct program, trace-fed single-lane runs,
// live taint-tracked runs for the leak cells), with a span around every
// layer call. Its Stats must equal the Runner's.
type decomposed struct {
	rec      *recorder
	op, root int64
	model    *machine.Model

	profiles map[string]*profile.Profile
	traces   map[string]*trace.Trace

	// Counts over the round, for the per-layer ratios.
	capturedEvents, traceBytes       int64
	runInstrs, runCycles, runSkipped int64
	runs                             int64
	runAlloc                         uint64
}

func newDecomposed(rec *recorder, op, root int64) *decomposed {
	return &decomposed{
		rec: rec, op: op, root: root, model: machine.R10000(),
		profiles: map[string]*profile.Profile{},
		traces:   map[string]*trace.Trace{},
	}
}

func traceKey(w bench.Workload, p *prog.Program) string {
	return fmt.Sprintf("%s/%016x", w.Name, p.Fingerprint())
}

func (d *decomposed) predecode(p *prog.Program) (*interp.Code, error) {
	var code *interp.Code
	err := d.rec.do(d.op, d.root, "interp.predecode", func() (err error) {
		code, err = interp.Predecode(p, nil)
		return err
	})
	return code, err
}

func (d *decomposed) capture(code *interp.Code, w bench.Workload, visit func(*interp.Event)) (*trace.Trace, interp.Result, error) {
	var tr *trace.Trace
	var res interp.Result
	err := d.rec.do(d.op, d.root, "trace.capture", func() (err error) {
		tr, res, err = trace.Capture(code, interp.Options{}, w.Init, visit)
		return err
	})
	if err == nil {
		d.capturedEvents += tr.Events()
		d.traceBytes += int64(tr.SizeBytes())
	}
	return tr, res, err
}

func (d *decomposed) profileOf(w bench.Workload) (*profile.Profile, error) {
	if prof := d.profiles[w.Name]; prof != nil {
		return prof, nil
	}
	p := w.Build()
	code, err := d.predecode(p)
	if err != nil {
		return nil, err
	}
	prof := profile.NewProfile()
	tr, res, err := d.capture(code, w, func(ev *interp.Event) {
		if ev.Branch {
			prof.Record(ev.BranchSite, ev.Taken)
		}
	})
	if err != nil {
		return nil, err
	}
	prof.DynInstrs = res.DynInstrs
	prof.Annulled = res.Annulled
	d.profiles[w.Name] = prof
	if k := traceKey(w, p); d.traces[k] == nil {
		d.traces[k] = tr
	}
	return prof, nil
}

func (d *decomposed) traceFor(w bench.Workload, p *prog.Program) (*trace.Trace, error) {
	k := traceKey(w, p)
	if tr := d.traces[k]; tr != nil {
		return tr, nil
	}
	code, err := d.predecode(p)
	if err != nil {
		return nil, err
	}
	tr, _, err := d.capture(code, w, nil)
	if err != nil {
		return nil, err
	}
	d.traces[k] = tr
	return tr, nil
}

func (d *decomposed) optimize(p *prog.Program, prof *profile.Profile, opts core.Options) error {
	return d.rec.do(d.op, d.root, "core.optimize", func() error {
		_, err := core.Optimize(p, prof, d.model, opts)
		return err
	})
}

func (d *decomposed) simulate(w bench.Workload, p *prog.Program, pred predict.Predictor) (pipeline.Stats, error) {
	tr, err := d.traceFor(w, p)
	if err != nil {
		return pipeline.Stats{}, err
	}
	pipe, err := pipeline.New(pipeline.Config{Model: d.model, Predictor: pred})
	if err != nil {
		return pipeline.Stats{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var st pipeline.Stats
	err = d.rec.do(d.op, d.root, "pipeline.run", func() (err error) {
		st, err = pipe.Run(tr.NewReader())
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return st, err
	}
	d.runs++
	d.runAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	d.runInstrs += st.Committed
	d.runCycles += st.Cycles
	d.runSkipped += pipe.SkipStats().SkippedCycles
	return st, nil
}

func (d *decomposed) predictor(s bench.Scheme) predict.Predictor {
	if s == bench.SchemePerfect {
		return predict.NewPerfect()
	}
	return predict.NewTwoBit(d.model.PredictorEntries)
}

func (d *decomposed) cell(s paperSuite, c paperCell) (pipeline.Stats, error) {
	switch c.kind {
	case cellTable, cellAblation:
		prof, err := d.profileOf(c.workload)
		if err != nil {
			return pipeline.Stats{}, err
		}
		p := c.workload.Build()
		if c.scheme == bench.SchemeProposed {
			opts := c.workload.Opt
			if c.kind == cellAblation {
				opts = s.configs[c.config].opts
			}
			if err := d.optimize(p, prof, opts); err != nil {
				return pipeline.Stats{}, err
			}
		}
		return d.simulate(c.workload, p, d.predictor(c.scheme))
	}
	return d.leakCell(c)
}

// leakCell mirrors Runner.RunLeak: the static leak rules over the exact
// program, then a live taint-tracked timing run (traces carry no taint).
func (d *decomposed) leakCell(c paperCell) (pipeline.Stats, error) {
	w := c.workload
	p := w.Build()
	if c.scheme == bench.SchemeProposed {
		prof, err := d.profileOf(w)
		if err != nil {
			return pipeline.Stats{}, err
		}
		if err := d.optimize(p, prof, w.Opt); err != nil {
			return pipeline.Stats{}, err
		}
	}
	d.rec.do(d.op, d.root, "analysis.analyze", func() error {
		analysis.Analyze(p, analysis.Options{Model: d.model})
		return nil
	})
	code, err := d.predecode(p)
	if err != nil {
		return pipeline.Stats{}, err
	}
	tm := code.NewTaintMachine(interp.Options{}, interp.TaintOptions{})
	if w.Init != nil {
		if err := w.Init(tm); err != nil {
			return pipeline.Stats{}, err
		}
	}
	pipe, err := pipeline.New(pipeline.Config{Model: d.model, Predictor: d.predictor(c.scheme), TrackLeaks: true})
	if err != nil {
		return pipeline.Stats{}, err
	}
	var st pipeline.Stats
	err = d.rec.do(d.op, d.root, "pipeline.run_taint", func() (err error) {
		st, err = pipe.Run(pipeline.NewTaintSource(tm))
		return err
	})
	return st, err
}

// paperLayers are the spans whose total the Runner's round is set
// against for bench.other_ms and traced.layer_coverage.
var paperLayers = []string{"interp.predecode", "trace.capture", "core.optimize", "analysis.analyze", "pipeline.run", "pipeline.run_taint"}

// tracedPaper runs the decomposed round with spans, and after each one
// the Runner's own round on a fresh Runner with a clock around it. The
// Runner round is the program's real cost: bench.other_ms is its time
// minus the layer spans of the traced round beside it, and
// traced.layer_coverage the share of it the layer spans account for.
// The decomposed round must give the Runner round's Stats, cell by cell.
func tracedPaper(ctx context.Context, cfg config, s paperSuite, plan []paperCell, rep *report) error {
	rec := &recorder{}
	var rounds, runnerRounds [][]paperCell
	var runnerMS []float64
	var counts []*decomposed
	var first *bench.Runner
	t, err := measure(cfg.seconds, nil, func(i int) error {
		root := rec.begin(int64(i), 0, "paper.round")
		defer rec.end(root)
		d := newDecomposed(rec, int64(i), root)
		cells := make([]paperCell, len(plan))
		rep.attempted += len(plan)
		for j, c := range plan {
			st, err := d.cell(s, c)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label(s), err)
			}
			c.stats = st
			cells[j] = c
		}
		rounds = append(rounds, cells)
		counts = append(counts, d)
		return nil
	}, func(int) error {
		r := newSerialRunner()
		runtime.GC()
		start := time.Now()
		cells, err := runnerRound(ctx, r, s, plan, nil)
		if err != nil {
			return err
		}
		runnerMS = append(runnerMS, ms(time.Since(start)))
		runnerRounds = append(runnerRounds, cells)
		if first == nil {
			first = r
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := rec.write(cfg.spans); err != nil {
		return err
	}

	checkPaperCells(rep, s, rounds[0])
	for i, cells := range rounds {
		if d := diffCells(s, runnerRounds[i], cells); d != "" {
			rep.fail("traced round %d differs from the Runner: %s", i, d)
		}
	}

	spans := rec.snapshot()
	layers := layerTimes(spans, "paper.round")
	got := map[string]float64{}
	for _, l := range paperLayers {
		got[l+"_ms"] = layers[l]
	}
	got["bench.other_ms"], got["traced.layer_coverage"] = againstProgram(roundLayerSums(spans, "paper.round", paperLayers), runnerMS)

	var events, bytes, runInstrs, cycles, skipped, runs int64
	var alloc uint64
	for _, d := range counts {
		events += d.capturedEvents
		bytes += d.traceBytes
		runInstrs += d.runInstrs
		cycles += d.runCycles
		skipped += d.runSkipped
		runs += d.runs
		alloc += d.runAlloc
	}
	captureSecs := spanSeconds(spans, "trace.capture")
	runSecs := spanSeconds(spans, "pipeline.run")
	got["trace.capture_minstr_s"] = float64(events) / captureSecs / 1e6
	got["trace.bytes_per_kevent"] = float64(bytes) / float64(events) * 1000
	got["pipeline.run_minstr_s"] = float64(runInstrs) / runSecs / 1e6
	got["pipeline.run_alloc_kb"] = float64(alloc) / float64(runs) / 1024
	got["pipeline.skip_rate"] = float64(skipped) / float64(cycles)
	var roundCycles int64
	for _, c := range rounds[0] {
		roundCycles += c.stats.Cycles
	}
	got["pipeline.sim_cycles"] = float64(roundCycles)
	got["core.proposed_cycle_speedup"] = proposedSpeedup(rounds[0])
	got["bench.arch_runs"] = float64(first.ArchRuns())
	got["bench.trace_drains"] = float64(first.TraceDrains())
	got["bench.sim_lanes"] = float64(first.SimLanes())
	got["traced.wall_s"] = median(durSeconds(t.rounds))
	got["traced.cpu_s"] = median(durSeconds(t.cpu))
	fillLayers(rep, got)
	return nil
}

// proposedSpeedup is the harmonic mean over the kernels of 2-bitBP
// cycles / Proposed cycles.
func proposedSpeedup(cells []paperCell) float64 {
	base := map[string]int64{}
	var sum float64
	n := 0
	for _, c := range cells {
		if c.kind != cellTable {
			continue
		}
		switch c.scheme {
		case bench.SchemeTwoBit:
			base[c.workload.Name] = c.stats.Cycles
		case bench.SchemeProposed:
			if b := base[c.workload.Name]; b > 0 && c.stats.Cycles > 0 {
				sum += float64(c.stats.Cycles) / float64(b)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / sum
}

// spanSeconds totals the duration of every span with the given name.
func spanSeconds(spans []span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}
