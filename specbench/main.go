// Command specbench is specguard's end-to-end benchmark. One process runs
// one workload, measures it for a fixed window, checks its outputs and
// prints one JSON result as the last line of standard output:
//
//	specbench --workload paper|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no instrumentation beyond the operation clock. With --trace 1 the
// benchmark runs the same work through its own spans around the calls
// into each layer and reports the per-layer metrics instead. README.md
// lists the workloads, the metrics and which layer should move which
// end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"specguard/internal/buildinfo"
)

// processStart anchors setup_s ("from process start to the first timed
// operation") and every span timestamp.
var processStart = time.Now()

// maxProcs caps the scheduler: the benchmark is sized for a 2-core host,
// and simulations run one at a time per worker, so more Ps would only
// add scheduling noise.
const maxProcs = 2

// setupRepeats is how many times each workload builds its set-up; the
// median is setup_s. Only the last set-up is kept for the timed phase.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	spans    string
	// small shrinks every workload so that the self-check test runs all
	// three, with their output checks, in seconds.
	small bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: its counts, its metrics (the
// end-to-end set untraced, the per-layer set traced) and every output
// check that failed.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
	notes             []string // wall-clock figures, printed but not gated
	problems          []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a figure that is printed for the reader but is not one of
// the result's metrics.
func (r *report) note(name, unit string, v float64) {
	r.notes = append(r.notes, fmt.Sprintf("  %-34s %14.6g %s", name, v, unit))
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper, sweep or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the sweep and serve inputs are drawn from (paper ignores it)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measuring window; whole rounds only")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "specbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "specbench: --seconds must be positive, got %g\n", cfg.seconds)
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.workdir = os.Getenv("SPECBENCH_WORKDIR")
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(".bench_build", "specbench", "work")
	}
	if cfg.trace {
		cfg.spans = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}
	printReport(stdout, cfg, rep)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "specbench: check failed: %s\n", p)
	}
	return 0
}

func runWorkload(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	switch cfg.workload {
	case "paper":
		return runPaper(cfg)
	case "sweep":
		return runSweep(cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, sweep or serve)", cfg.workload)
}

// printReport writes the human-readable header and metric table, then the
// JSON result as the last line.
func printReport(w io.Writer, cfg config, rep *report) {
	host, _ := os.Hostname()
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "specbench workload=%s seed=%d seconds=%g metrics=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "host=%s gomaxprocs=%d go=%s commit=%s\n", host, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	names := append([]string(nil), rep.order...)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if len(rep.notes) > 0 {
		fmt.Fprintln(w, "wall-clock figures (not gated):")
		for _, n := range rep.notes {
			fmt.Fprintln(w, n)
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d checks=%s\n", rep.attempted, rep.failed, checkSummary(rep))
	if cfg.trace {
		fmt.Fprintf(w, "spans written to %s\n", cfg.spans)
	}
	out, _ := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	fmt.Fprintln(w, string(out))
}

func checkSummary(rep *report) string {
	if len(rep.problems) == 0 {
		return "passed"
	}
	return fmt.Sprintf("%d failed", len(rep.problems))
}

// commit names the source revision the binary was built from, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	v := strings.Fields(buildinfo.Version("specbench"))
	if len(v) < 2 || v[1] == "devel" {
		return "unknown"
	}
	return v[1]
}

// timed is the outcome of a measuring window: one entry per round.
type timed struct {
	rounds []time.Duration
	cpu    []time.Duration // process CPU time per round
	allocs []uint64        // heap bytes allocated per round
	total  time.Duration
}

// measure runs whole rounds until the window is spent. prepare and after
// (both optional and untimed) run before and after each round; a further round starts only if the previous
// round's length still fits in what is left of the window, so a run does
// the same whole rounds on every seed and overshoots by at most one
// round's variance. At least one round always runs.
func measure(seconds float64, prepare, round, after func(i int) error) (timed, error) {
	var t timed
	window := time.Duration(seconds * float64(time.Second))
	var ms runtime.MemStats
	for i := 0; ; i++ {
		if i > 0 && t.total+t.rounds[i-1] > window {
			break
		}
		if prepare != nil {
			if err := prepare(i); err != nil {
				return t, err
			}
		}
		// Every round starts from a collected heap, so that one round's
		// garbage is not charged to the next.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		cpu0 := cpuTime()
		if err := round(i); err != nil {
			return t, err
		}
		d := time.Since(start)
		t.cpu = append(t.cpu, cpuTime()-cpu0)
		runtime.ReadMemStats(&ms)
		t.rounds = append(t.rounds, d)
		t.allocs = append(t.allocs, ms.TotalAlloc-alloc0)
		t.total += d
		if after != nil {
			if err := after(i); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// setupCost is the median cost of the workload's set-up.
type setupCost struct {
	cpu, wall float64 // seconds
}

// setupTimes runs build setupRepeats times. The first set-up is measured
// from process start, the others from their own start; every set-up but
// the last is torn down with close. It returns the median cost and the
// last environment.
func setupTimes[E any](build func() (E, error), close func(E)) (setupCost, E, error) {
	var env E
	var cpus, walls []float64
	for i := 0; i < setupRepeats; i++ {
		start, cpu0 := time.Now(), cpuTime()
		if i == 0 {
			start, cpu0 = processStart, 0
		}
		e, err := build()
		if err != nil {
			return setupCost{}, env, err
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		if i < setupRepeats-1 {
			close(e)
		} else {
			env = e
		}
	}
	return setupCost{cpu: median(cpus), wall: median(walls)}, env, nil
}

// setCommon fills the end-to-end metrics, which every workload reports
// the same way, and the wall-clock figures printed beside them. The
// gated metrics count CPU time, not wall time: on a shared virtual
// machine the hypervisor steals the CPU for stretches of seconds, which
// inflates every wall-clock figure by up to a quarter from one minute to
// the next while the process's CPU time, from which stolen time is
// excluded, stays within a few percent (README.md has the measurements).
//
// ops is the number of operations completed in the window, instrs the
// simulated instructions committed in it, and lat the latency of each
// timed operation in milliseconds.
func setCommon(rep *report, setup setupCost, t timed, ops int, instrs int64, lat []float64) {
	var cpu time.Duration
	for _, d := range t.cpu {
		cpu += d
	}
	rep.set("setup_s", "s", setup.cpu)
	rep.set("cpu_s", "s", median(durSeconds(t.cpu)))
	rep.set("sim_minstr_per_cpu_s", "Minstr/s", float64(instrs)/cpu.Seconds()/1e6)
	rep.set("alloc_mb", "MB", median(u64s(t.allocs))/(1<<20))
	rep.set("peak_rss_mb", "MB", peakRSSMB())

	secs := t.total.Seconds()
	rep.note("setup_wall_s", "s", setup.wall)
	rep.note("wall_s", "s", median(durSeconds(t.rounds)))
	rep.note("sim_minstr_s", "Minstr/s", float64(instrs)/secs/1e6)
	rep.note("rps", "1/s", float64(ops)/secs)
	rep.note("op_ms_p50", "ms", percentile(lat, 50))
	rep.note("op_ms_p90", "ms", percentile(lat, 90))
	rep.note("rounds", "count", float64(len(t.rounds)))
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func u64s(vs []uint64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of vs (0 for none).
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile returns the p-th percentile of vs by linear interpolation
// between closest ranks (0 for none).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
