package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"specguard/internal/bench"
	"specguard/internal/explore"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/trace"
)

// The sweep workload is a warm design-space sweep: set-up captures every
// kernel's profile and trace, and the timed phase runs explore.Run under
// 2-bitBP over grids drawn from the seed. Nearly all of its time goes to
// pipeline.Batch.Run over cached trace.Readers, with no architectural
// runs in the timed phase, so a timing-core gain shows in full here and
// a front-end or optimizer gain should show as no change.
//
// A round is sweepGrids grids. The axes that set a lane's cost — fetch
// width, active list, integer queue, branch stack and throttled-fetch
// width — move together in fixed bundles, one bundle per grid, so that
// every seed simulates nearly the same number of cycles. The seed deals
// the bundles to the grids and pairs them with the remaining axes
// through a Latin hypercube (every value of an axis used exactly once per
// round). Each grid then varies the predictor family and turns the
// throttle on and off, giving four lanes per drain; every grid has its
// own I-cache size, so each kernel is drained once per grid. One
// operation is one explore.Run call: one grid on one kernel. No call
// fails on these inputs; one that returns an error ends the run with
// that error and no result.

const sweepGrids = 4

// sweepBundles are the cost-setting axes, one bundle per grid. The last
// coordinate is the throttled fetch width the grid switches on.
var sweepBundles = [][]machine.Coord{
	{{Name: "fetch_width", Value: 2}, {Name: "active_list", Value: 16}, {Name: "int_queue", Value: 8}, {Name: "branch_stack", Value: 3}, {Name: "throttle_width", Value: 1}},
	{{Name: "fetch_width", Value: 3}, {Name: "active_list", Value: 24}, {Name: "int_queue", Value: 12}, {Name: "branch_stack", Value: 4}, {Name: "throttle_width", Value: 2}},
	{{Name: "fetch_width", Value: 4}, {Name: "active_list", Value: 32}, {Name: "int_queue", Value: 16}, {Name: "branch_stack", Value: 4}, {Name: "throttle_width", Value: 2}},
	{{Name: "fetch_width", Value: 6}, {Name: "active_list", Value: 48}, {Name: "int_queue", Value: 24}, {Name: "branch_stack", Value: 6}, {Name: "throttle_width", Value: 3}},
}

// sweepAxes are the axes the Latin hypercube pairs with the bundles; each
// lists sweepGrids values.
var sweepAxes = []machine.Axis{
	{Name: "entries", Values: []int{256, 512, 1024, 2048}},
	{Name: "icache_bytes", Values: []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}},
}

type sweepGrid struct {
	base   *machine.Model
	coords []machine.Coord
	axes   []machine.Axis
}

func (g sweepGrid) label() string { return machine.Point{Coords: g.coords}.CoordLabel() }

// drawGrids builds the round's grids from the seed.
func drawGrids(seed int64, small bool) ([]sweepGrid, error) {
	rng := rand.New(rand.NewSource(seed))
	n := sweepGrids
	if small {
		n = 1
	}
	perm := func() []int { return rng.Perm(sweepGrids) }
	cols := make([][]int, len(sweepAxes))
	for i := range sweepAxes {
		cols[i] = perm()
	}
	bundles := perm()
	grids := make([]sweepGrid, n)
	for g := range grids {
		m := machine.R10000()
		bundle := sweepBundles[bundles[g]]
		coords := append([]machine.Coord(nil), bundle[:len(bundle)-1]...)
		for i, ax := range sweepAxes {
			coords = append(coords, machine.Coord{Name: ax.Name, Value: ax.Values[cols[i][g]]})
		}
		for _, c := range coords {
			if err := machine.Apply(m, c.Name, c.Value); err != nil {
				return nil, err
			}
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("grid %d base: %w", g, err)
		}
		axes := []machine.Axis{
			{Name: "predictor", Values: []int{int(machine.PredTwoBit), int(machine.PredGShare)}},
			{Name: "throttle_width", Values: []int{0, bundle[len(bundle)-1].Value}},
		}
		if small {
			axes = axes[:1]
		}
		grids[g] = sweepGrid{base: m, coords: coords, axes: axes}
	}
	return grids, nil
}

func sweepKernels(small bool) []bench.Workload {
	if small {
		return []bench.Workload{bench.Grep()}
	}
	return bench.All()
}

// sweepOp is one explore.Run call of a round.
type sweepOp struct {
	grid   int
	kernel bench.Workload
	rep    *explore.Report
}

func exploreRound(ctx context.Context, r *bench.Runner, grids []sweepGrid, kernels []bench.Workload, lat *[]float64) ([]sweepOp, error) {
	var ops []sweepOp
	for g, grid := range grids {
		for _, w := range kernels {
			start := time.Now()
			rep, err := explore.Run(ctx, r, explore.Request{
				Base:      grid.base,
				Axes:      grid.axes,
				Workloads: []bench.Workload{w},
				Scheme:    bench.SchemeTwoBit,
			})
			if err != nil {
				return nil, fmt.Errorf("grid %d (%s) on %s: %w", g, grid.label(), w.Name, err)
			}
			if lat != nil {
				*lat = append(*lat, ms(time.Since(start)))
			}
			ops = append(ops, sweepOp{grid: g, kernel: w, rep: rep})
		}
	}
	return ops, nil
}

// sweepEnv is the warm state the timed phase runs on.
type sweepEnv struct {
	runner *bench.Runner
	traces map[string]*trace.Trace // the benchmark's own captures, by kernel
}

func setupSweep(kernels []bench.Workload, ownTraces bool) (*sweepEnv, error) {
	env := &sweepEnv{runner: newSerialRunner(), traces: map[string]*trace.Trace{}}
	for _, w := range kernels {
		if _, err := env.runner.ProfileOf(w); err != nil {
			return nil, err
		}
		if ownTraces {
			tr, err := captureTrace(w)
			if err != nil {
				return nil, err
			}
			env.traces[w.Name] = tr
		}
	}
	return env, nil
}

// captureTrace records the original program's trace outside the Runner.
func captureTrace(w bench.Workload) (*trace.Trace, error) {
	code, err := interp.Predecode(w.Build(), nil)
	if err != nil {
		return nil, fmt.Errorf("predecoding %s: %w", w.Name, err)
	}
	tr, _, err := trace.Capture(code, interp.Options{}, w.Init, nil)
	if err != nil {
		return nil, fmt.Errorf("capturing %s: %w", w.Name, err)
	}
	return tr, nil
}

func runSweep(cfg config) (*report, error) {
	ctx := context.Background()
	kernels := sweepKernels(cfg.small)
	grids, err := drawGrids(cfg.seed, cfg.small)
	if err != nil {
		return nil, err
	}
	setup, env, err := setupTimes(func() (*sweepEnv, error) {
		return setupSweep(kernels, cfg.trace)
	}, func(*sweepEnv) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if cfg.trace {
		return rep, tracedSweep(ctx, cfg, env, grids, kernels, rep)
	}

	var rounds [][]sweepOp
	var lat []float64
	arch0 := env.runner.ArchRuns()
	t, err := measure(cfg.seconds, nil, func(int) error {
		ops, err := exploreRound(ctx, env.runner, grids, kernels, &lat)
		rep.attempted += len(grids) * len(kernels)
		if err != nil {
			return err
		}
		rounds = append(rounds, ops)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	var instrs int64
	for _, ops := range rounds {
		instrs += opsCommitted(ops)
	}
	setCommon(rep, setup, t, len(lat), instrs, lat)

	if n := env.runner.ArchRuns() - arch0; n != 0 {
		rep.fail("the timed phase performed %d architectural runs; set-up should have captured every trace", n)
	}
	for i, ops := range rounds[1:] {
		if d := diffOps(rounds[0], ops); d != "" {
			rep.fail("round %d differs from round 0: %s", i+1, d)
		}
	}
	traces := map[string]*trace.Trace{}
	for _, w := range kernels {
		tr, err := captureTrace(w)
		if err != nil {
			return nil, err
		}
		traces[w.Name] = tr
	}
	checkSweep(rep, grids, rounds[0], traces)
	return rep, nil
}

func opsCommitted(ops []sweepOp) int64 {
	var n int64
	for _, op := range ops {
		for _, p := range op.rep.Points {
			for _, c := range p.Cells {
				n += c.Stats.Committed
			}
		}
	}
	return n
}

func diffOps(a, b []sweepOp) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d operations against %d", len(a), len(b))
	}
	for i := range a {
		ja, _ := json.Marshal(a[i].rep.Points)
		jb, _ := json.Marshal(b[i].rep.Points)
		if string(ja) != string(jb) {
			return fmt.Sprintf("grid %d on %s: points differ", a[i].grid, a[i].kernel.Name)
		}
	}
	return ""
}

// pointModel rebuilds a point's machine from its grid's base and its
// coordinates.
func pointModel(g sweepGrid, coords []machine.Coord) (*machine.Model, error) {
	m := g.base.Clone()
	for _, c := range coords {
		if err := machine.Apply(m, c.Name, c.Value); err != nil {
			return nil, err
		}
	}
	return m, m.Validate()
}

// predictorFor builds the predictor a 2-bitBP sweep lane simulates with.
func predictorFor(m *machine.Model) predict.Predictor {
	switch m.Predictor {
	case machine.PredGShare:
		return predict.NewGShare(m.PredictorEntries, uint(m.HistoryBits))
	case machine.PredPerfect:
		return predict.NewPerfect()
	}
	return predict.NewTwoBit(m.PredictorEntries)
}

// checkSweep verifies one round of reports: every lane's Stats equal a
// single-lane pipeline run of the same model on the same trace, every
// lane of a program commits the same instructions, each point's IPC is
// the harmonic mean of its cells, and the frontier is exactly the
// non-dominated set of the points' (cost, IPC).
func checkSweep(rep *report, grids []sweepGrid, ops []sweepOp, traces map[string]*trace.Trace) {
	committed := map[string]int64{}
	for _, op := range ops {
		g := grids[op.grid]
		where := fmt.Sprintf("grid %d (%s) on %s", op.grid, g.label(), op.kernel.Name)
		if len(op.rep.Points) == 0 {
			rep.fail("%s: no points", where)
			continue
		}
		for pi, p := range op.rep.Points {
			m, err := pointModel(g, p.Coords)
			if err != nil {
				rep.fail("%s point %d: %v", where, pi, err)
				continue
			}
			if m.Key() != p.ModelKey {
				rep.fail("%s point %d: model key %q, rebuilt %q", where, pi, p.ModelKey, m.Key())
			}
			var inv float64
			for _, c := range p.Cells {
				st := c.Stats
				if n, ok := committed[c.Workload]; !ok {
					committed[c.Workload] = st.Committed
				} else if n != st.Committed {
					rep.fail("%s point %d: commits %d instructions, other lanes of %s %d", where, pi, st.Committed, c.Workload, n)
				}
				if st.Cycles <= 0 {
					rep.fail("%s point %d: no cycles", where, pi)
					continue
				}
				inv += float64(st.Cycles) / float64(st.Committed)
				if d := singleLaneDiff(m, traces[c.Workload], st); d != "" {
					rep.fail("%s point %d: batched lane differs from a single-lane run: %s", where, pi, d)
				}
			}
			if hm := float64(len(p.Cells)) / inv; math.Abs(hm-p.IPC) > 1e-9*hm {
				rep.fail("%s point %d: IPC %g, harmonic mean of its cells %g", where, pi, p.IPC, hm)
			}
		}
		checkFrontier(rep, where, op.rep)
	}
}

func singleLaneDiff(m *machine.Model, tr *trace.Trace, got pipeline.Stats) string {
	if tr == nil {
		return "no trace"
	}
	pipe, err := pipeline.New(pipeline.Config{Model: m, Predictor: predictorFor(m)})
	if err != nil {
		return err.Error()
	}
	want, err := pipe.Run(tr.NewReader())
	if err != nil {
		return err.Error()
	}
	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		return fmt.Sprintf("batched %s, single-lane %s", jg, jw)
	}
	return ""
}

// checkFrontier compares the report's frontier and pareto flags with
// the non-dominated set, recomputed from the points' cost and IPC.
func checkFrontier(rep *report, where string, r *explore.Report) {
	pts := r.Points
	want := map[int]bool{}
	for _, i := range nonDominated(pts) {
		want[i] = true
	}
	got := map[int]bool{}
	for _, i := range r.Frontier {
		if i < 0 || i >= len(pts) {
			rep.fail("%s: frontier index %d out of range", where, i)
			return
		}
		got[i] = true
	}
	for i := range pts {
		if want[i] != got[i] {
			rep.fail("%s: point %d on frontier = %v, non-dominated = %v", where, i, got[i], want[i])
		}
		if pts[i].Pareto != want[i] {
			rep.fail("%s: point %d pareto flag %v, non-dominated = %v", where, i, pts[i].Pareto, want[i])
		}
	}
}

// ---- traced variant ----------------------------------------------------

// sweepDrainCounts accumulates the drains of a traced round.
type sweepDrainCounts struct {
	drains, lanes, laneInstrs, laneCycles, skipped int64
	alloc                                          uint64
}

// decomposedOp performs what explore.Run does for one grid on one
// kernel — Expand, group the points into lanes by I-cache geometry and
// model, one batched drain per group, then reduce to IPC, cost and the
// frontier — with a span around Expand and each drain. The grouping and
// the reduction are the benchmark's own copy of explore's code, so they
// get no span: their cost is measured on explore.Run itself (see
// tracedSweep).
func decomposedOp(rec *recorder, op, root int64, g sweepGrid, w bench.Workload, tr *trace.Trace, n *sweepDrainCounts) (*explore.Report, error) {
	var points []machine.Point
	err := rec.do(op, root, "explore.expand", func() (err error) {
		points, err = machine.Expand(g.base, g.axes)
		return err
	})
	if err != nil {
		return nil, err
	}

	type group struct {
		models []*machine.Model
		byKey  map[string]int
		batch  *pipeline.Batch
	}
	var groups []*group
	laneOf := make([][2]int, len(points)) // point → (group, lane)
	err = func() error {
		byGeom := map[[2]int]int{}
		for i, pt := range points {
			geom := [2]int{pt.Model.ICacheBytes, pt.Model.CacheLineBytes}
			gi, ok := byGeom[geom]
			if !ok {
				gi = len(groups)
				byGeom[geom] = gi
				groups = append(groups, &group{byKey: map[string]int{}})
			}
			gr := groups[gi]
			k := pt.Model.Key()
			lane, ok := gr.byKey[k]
			if !ok {
				lane = len(gr.models)
				gr.byKey[k] = lane
				gr.models = append(gr.models, pt.Model)
			}
			laneOf[i] = [2]int{gi, lane}
		}
		for _, gr := range groups {
			var sizes []int
			for _, m := range gr.models {
				if m.Predictor == machine.PredTwoBit {
					sizes = append(sizes, m.PredictorEntries)
				}
			}
			twoBit := predict.NewTwoBitLanes(sizes)
			cfgs := make([]pipeline.Config, len(gr.models))
			for i, m := range gr.models {
				var pred predict.Predictor
				if m.Predictor == machine.PredTwoBit {
					pred, twoBit = twoBit[0], twoBit[1:]
				} else {
					pred = predictorFor(m)
				}
				cfgs[i] = pipeline.Config{Model: m, Predictor: pred}
			}
			b, err := pipeline.NewBatch(cfgs)
			if err != nil {
				return err
			}
			gr.batch = b
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}

	stats := make([][]pipeline.Stats, len(groups))
	for gi, gr := range groups {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := rec.do(op, root, "pipeline.batch_drain", func() (err error) {
			stats[gi], err = gr.batch.Run(tr.NewReader())
			return err
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		n.drains++
		n.lanes += int64(len(gr.models))
		n.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		n.skipped += gr.batch.SkipStats().SkippedCycles
		for _, st := range stats[gi] {
			n.laneInstrs += st.Committed
			n.laneCycles += st.Cycles
		}
	}

	out := &explore.Report{Scheme: bench.SchemeTwoBit.String(), Workloads: []string{w.Name}}
	out.Points = make([]explore.Point, len(points))
	for i, pt := range points {
		st := stats[laneOf[i][0]][laneOf[i][1]]
		ipc := float64(st.Committed) / float64(st.Cycles)
		out.Points[i] = explore.Point{
			Coords:   pt.Coords,
			ModelKey: pt.Model.Key(),
			Cost:     explore.Cost(pt.Model),
			IPC:      harmonicMean([]float64{ipc}),
			Cells:    []explore.Cell{{Workload: w.Name, IPC: ipc, Stats: st}},
		}
	}
	out.Frontier = nonDominated(out.Points)
	for _, i := range out.Frontier {
		out.Points[i].Pareto = true
	}
	return out, nil
}

// harmonicMean aggregates per-kernel IPCs the way explore reports a
// point's IPC, so the decomposed reports compare bit for bit.
func harmonicMean(ipcs []float64) float64 {
	sum := 0.0
	for _, v := range ipcs {
		sum += 1 / v
	}
	return float64(len(ipcs)) / sum
}

// nonDominated lists, ascending by cost, the points no other point
// dominates, by the definition: a point is dominated when another costs
// no more and reaches at least its IPC, with one of the two strict; of
// points tied on both, the first in grid order stands.
func nonDominated(pts []explore.Point) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if j != i && q.Cost <= p.Cost && q.IPC >= p.IPC && (q.Cost < p.Cost || q.IPC > p.IPC || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && pts[out[b]].Cost < pts[out[b-1]].Cost; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// sweepLayers are the spans whose total explore.Run's own round is set
// against for explore.other_ms and traced.layer_coverage.
var sweepLayers = []string{"explore.expand", "pipeline.batch_drain"}

// tracedSweep runs the decomposed round with spans, and after each one
// the same grids through explore.Run on the warm Runner, with a clock
// around each call. That round is the program's real cost:
// explore.other_ms is its time minus the layer spans of the traced round
// beside it — lane grouping, batch construction, the reduction and the
// Runner's own overhead — and traced.layer_coverage the share of it the
// layer spans account for. The decomposed reports must equal
// explore.Run's.
func tracedSweep(ctx context.Context, cfg config, env *sweepEnv, grids []sweepGrid, kernels []bench.Workload, rep *report) error {
	rec := &recorder{}
	var rounds, runnerRounds [][]sweepOp
	var runnerMS []float64
	var n sweepDrainCounts
	r := env.runner
	var arch, drains, lanes int64
	t, err := measure(cfg.seconds, nil, func(i int) error {
		root := rec.begin(int64(i), 0, "sweep.round")
		defer rec.end(root)
		var ops []sweepOp
		rep.attempted += len(grids) * len(kernels)
		for g, grid := range grids {
			for _, w := range kernels {
				res, err := decomposedOp(rec, int64(i), root, grid, w, env.traces[w.Name], &n)
				if err != nil {
					return fmt.Errorf("grid %d on %s: %w", g, w.Name, err)
				}
				ops = append(ops, sweepOp{grid: g, kernel: w, rep: res})
			}
		}
		rounds = append(rounds, ops)
		return nil
	}, func(i int) error {
		arch0, drains0, lanes0 := r.ArchRuns(), r.TraceDrains(), r.SimLanes()
		runtime.GC()
		var lat []float64
		ops, err := exploreRound(ctx, r, grids, kernels, &lat)
		if err != nil {
			return err
		}
		var sum float64
		for _, l := range lat {
			sum += l
		}
		runnerMS = append(runnerMS, sum)
		runnerRounds = append(runnerRounds, ops)
		if i == 0 {
			arch, drains, lanes = r.ArchRuns()-arch0, r.TraceDrains()-drains0, r.SimLanes()-lanes0
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := rec.write(cfg.spans); err != nil {
		return err
	}

	for i, ops := range rounds {
		runnerOps := runnerRounds[i]
		if d := diffOps(runnerOps, ops); d != "" {
			rep.fail("traced round %d differs from explore.Run: %s", i, d)
		}
		for j := range ops {
			if fmt.Sprint(ops[j].rep.Frontier) != fmt.Sprint(runnerOps[j].rep.Frontier) {
				rep.fail("traced round %d grid %d on %s: frontier %v, explore.Run %v", i, ops[j].grid, ops[j].kernel.Name, ops[j].rep.Frontier, runnerOps[j].rep.Frontier)
			}
		}
	}
	checkSweep(rep, grids, rounds[0], env.traces)

	spans := rec.snapshot()
	layers := layerTimes(spans, "sweep.round")
	got := map[string]float64{
		"explore.expand_ms":       layers["explore.expand"],
		"pipeline.batch_drain_ms": layers["pipeline.batch_drain"],
	}
	got["explore.other_ms"], got["traced.layer_coverage"] = againstProgram(roundLayerSums(spans, "sweep.round", sweepLayers), runnerMS)
	got["pipeline.batch_lane_minstr_s"] = float64(n.laneInstrs) / spanSeconds(spans, "pipeline.batch_drain") / 1e6
	got["pipeline.batch_alloc_kb"] = float64(n.alloc) / float64(n.drains) / 1024
	got["pipeline.lanes_per_drain"] = float64(n.lanes) / float64(n.drains)
	got["pipeline.skip_rate"] = float64(n.skipped) / float64(n.laneCycles)
	got["pipeline.sim_cycles"] = float64(n.laneCycles) / float64(len(rounds))
	got["bench.arch_runs"] = float64(arch)
	got["bench.trace_drains"] = float64(drains)
	got["bench.sim_lanes"] = float64(lanes)

	var events, bytes int64
	for _, w := range kernels {
		tr := env.traces[w.Name]
		events += tr.Events()
		bytes += int64(tr.SizeBytes())
	}
	got["trace.bytes_per_kevent"] = float64(bytes) / float64(events) * 1000
	replay, err := replayRate(kernels, env.traces)
	if err != nil {
		return err
	}
	got["trace.replay_minstr_s"] = replay
	got["traced.wall_s"] = median(durSeconds(t.rounds))
	got["traced.cpu_s"] = median(durSeconds(t.cpu))
	fillLayers(rep, got)
	return nil
}

// replayRate drains every kernel's trace through a bare Reader.NextInto
// loop — the decode ceiling the batched lanes share — and returns events
// per second in millions, best of three passes.
func replayRate(kernels []bench.Workload, traces map[string]*trace.Trace) (float64, error) {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		var events int64
		start := time.Now()
		for _, w := range kernels {
			rd := traces[w.Name].NewReader()
			var ev interp.Event
			for {
				ok, err := rd.NextInto(&ev)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				events++
			}
		}
		if rate := float64(events) / time.Since(start).Seconds() / 1e6; rate > best {
			best = rate
		}
	}
	return best, nil
}
