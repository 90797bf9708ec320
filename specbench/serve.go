package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specguard/internal/bench"
	"specguard/internal/cluster"
	"specguard/internal/machine"
	"specguard/internal/serve"
)

// The serve workload puts a cluster.Coordinator in front of two
// serve.Service backends, all on loopback HTTP inside this process, and
// drives it with a closed loop of two clients: each sends its next
// request only after the previous reply arrived. It is the only
// workload that exercises the HTTP, JSON, store, ring and proxy layers.
//
// Each client's schedule (drawn from the seed, the same every round) is
// mostly /v1/run. A miss is the first request for a new key: a kernel
// and scheme with a varied predictor_entries or machine override; it
// simulates and writes the store. A hit repeats a key the same client
// completed earlier and reads the store. The clients' key sets are
// disjoint, so nothing coalesces and the seed alone fixes the split.
// Hits outnumber misses three to one, so op_ms_p50 falls among hits and
// op_ms_p90 among misses. After both clients finish, one /v1/sweep table
// runs; it counts toward wall_s and rps only.
//
// Every round starts on empty stores: the backends get fresh Services
// (and store directories) that share the warm Runners, so every round
// repeats the same hits and misses.

type serveShape struct {
	misses, hits int // per client per round
}

func serveShapeFor(small bool) serveShape {
	if small {
		return serveShape{misses: 3, hits: 6}
	}
	return serveShape{misses: 16, hits: 48}
}

// serveReq is one scheduled /v1/run request.
type serveReq struct {
	body serve.RunRequest
	key  string // canonical identity, from serve.NormalizeRequest
	hit  bool
}

type serveSchedule struct {
	clients      [2][]serveReq
	sweepEntries int
	sweepKeys    []string
}

// machineOverrides are the single-axis overrides a miss may carry. They
// change only timing, so the optimizer's output, and hence the traces
// captured in set-up, stay valid.
var machineOverrides = []struct {
	axis   string
	lo, hi int
}{
	{"mispredict_penalty", 2, 8},
	{"miss_penalty", 3, 10},
	{"branch_stack", 2, 8},
}

func drawSchedule(seed int64, sh serveShape) (*serveSchedule, error) {
	rng := rand.New(rand.NewSource(seed))
	base := machine.R10000()
	kernels := bench.All()
	seen := map[string]bool{}
	var specs [2][]serveReq
	for c := range specs {
		for j := 0; j < sh.misses; j++ {
			w := kernels[j%len(kernels)]
			sc := schemes[(j/len(kernels)+c)%len(schemes)]
			for {
				req := serve.RunRequest{Workload: w.Name, Scheme: sc.String()}
				switch {
				case sc == bench.SchemeProposed || (sc == bench.SchemeTwoBit && rng.Intn(2) == 0):
					req.PredictorEntries = 64 + rng.Intn(16384)
				default:
					o := machineOverrides[rng.Intn(len(machineOverrides))]
					req.Machine = map[string]int{o.axis: o.lo + rng.Intn(o.hi-o.lo+1)}
				}
				norm := req
				_, key, err := serve.NormalizeRequest(&norm, base)
				if err != nil {
					return nil, err
				}
				if seen[key] || key == defaultKey(w, sc) {
					continue
				}
				seen[key] = true
				specs[c] = append(specs[c], serveReq{body: req, key: key})
				break
			}
		}
	}
	s := &serveSchedule{sweepEntries: 20000 + rng.Intn(1000)}
	for c := range specs {
		rng.Shuffle(len(specs[c]), func(a, b int) { specs[c][a], specs[c][b] = specs[c][b], specs[c][a] })
		kinds := make([]bool, sh.misses+sh.hits) // true = hit
		for i := sh.misses; i < len(kinds); i++ {
			kinds[i] = true
		}
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		for i, k := range kinds {
			if !k {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
		var done []serveReq
		next := 0
		for _, hit := range kinds {
			if hit {
				rq := done[rng.Intn(len(done))]
				rq.hit = true
				s.clients[c] = append(s.clients[c], rq)
				continue
			}
			rq := specs[c][next]
			next++
			done = append(done, rq)
			s.clients[c] = append(s.clients[c], rq)
		}
	}
	for _, w := range kernels {
		for _, sc := range schemes {
			req := serve.RunRequest{Workload: w.Name, Scheme: sc.String(), PredictorEntries: s.sweepEntries}
			_, key, err := serve.NormalizeRequest(&req, base)
			if err != nil {
				return nil, err
			}
			s.sweepKeys = append(s.sweepKeys, key)
		}
	}
	return s, nil
}

// defaultKey is the key of the request that names no override at all;
// misses avoid it so that every key is a varied one.
func defaultKey(w bench.Workload, sc bench.Scheme) string {
	req := serve.RunRequest{Workload: w.Name, Scheme: sc.String()}
	_, key, _ := serve.NormalizeRequest(&req, machine.R10000())
	return key
}

// ---- the in-process cluster --------------------------------------------

type backendState struct {
	svc     *serve.Service
	handler http.Handler
	dir     string
}

type backend struct {
	runner *bench.Runner
	state  atomic.Pointer[backendState]
	srv    *http.Server
	url    string
	served chan struct{}
}

// sweepKey stands for the key of a sweep-table request: at most one
// sweep runs at a time, so the interval alone ties its spans together.
const sweepKey = "sweep"

// handlerSpan is one handler interval the middleware timed; the key ties
// it to the client request it served.
type handlerSpan struct {
	key        string
	name       string
	start, end int64
}

type serveEnv struct {
	dir      string
	backends []*backend
	coord    *cluster.Coordinator
	coordSrv *http.Server
	coordURL string
	served   chan struct{}
	client   *http.Client

	tracing  bool
	mu       sync.Mutex
	handlers []handlerSpan
}

// timeHandler wraps h with the benchmark-side middleware: in traced runs
// it times every /v1/run and /v1/sweep exchange and notes the key it
// served; otherwise it only forwards.
func (e *serveEnv) timeHandler(name string, h func() http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.tracing || (r.URL.Path != "/v1/run" && r.URL.Path != "/v1/sweep") {
			h().ServeHTTP(w, r)
			return
		}
		start := int64(time.Since(processStart))
		key := sweepKey
		if r.URL.Path == "/v1/run" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req serve.RunRequest
			if json.Unmarshal(body, &req) == nil {
				_, key, _ = serve.NormalizeRequest(&req, machine.R10000())
			}
		}
		h().ServeHTTP(w, r)
		end := int64(time.Since(processStart))
		e.mu.Lock()
		e.handlers = append(e.handlers, handlerSpan{key: key, name: name, start: start, end: end})
		e.mu.Unlock()
	})
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(srv *http.Server, ln net.Listener) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return done
}

// newBackendState opens a fresh store under dir and starts a one-worker
// Service on the backend's warm Runner.
func newBackendState(r *bench.Runner, dir string) (*backendState, error) {
	st, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	svc, err := serve.NewService(serve.Config{Runner: r, Store: st, Workers: 1})
	if err != nil {
		return nil, err
	}
	svc.MarkReady()
	return &backendState{svc: svc, handler: svc.Handler(), dir: dir}, nil
}

func (s *backendState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.svc.Drain(ctx)
	os.RemoveAll(s.dir)
}

// warmRunner captures every kernel's profile and original and Proposed
// traces, so that no request of the timed phase runs the architecture.
func warmRunner(r *bench.Runner) error {
	var specs []bench.Spec
	for _, w := range bench.All() {
		specs = append(specs, bench.Spec{Workload: w, Scheme: bench.SchemeProposed})
	}
	_, err := r.RunSpecs(context.Background(), specs)
	return err
}

func startServe(dir string, tracing bool) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The coordinator knows the backends by fixed names, which the
	// transport resolves to their loopback ports, so that the ring places
	// every key on the same backend in every run.
	addrs := map[string]string{}
	var dialer net.Dialer
	e := &serveEnv{
		dir:     dir,
		tracing: tracing,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if a, ok := addrs[addr]; ok {
					addr = a
				}
				return dialer.DialContext(ctx, network, addr)
			},
		}},
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		b := &backend{runner: newSerialRunner()}
		e.backends = append(e.backends, b)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = warmRunner(b.runner)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	var urls []string
	for i, b := range e.backends {
		st, err := newBackendState(b.runner, filepath.Join(dir, fmt.Sprintf("setup-b%d", i)))
		if err != nil {
			e.close()
			return nil, err
		}
		b.state.Store(st)
		ln, _, err := listen()
		if err != nil {
			e.close()
			return nil, err
		}
		name := fmt.Sprintf("backend-%d.specbench:80", i)
		addrs[name] = ln.Addr().String()
		b.url = "http://" + name
		b.srv = &http.Server{Handler: e.timeHandler("serve.handler", func() http.Handler { return b.state.Load().handler })}
		b.served = serveOn(b.srv, ln)
		urls = append(urls, b.url)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls, Client: e.client})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = coord
	ln, url, err := listen()
	if err != nil {
		e.close()
		return nil, err
	}
	e.coordURL = url
	handler := coord.Handler()
	e.coordSrv = &http.Server{Handler: e.timeHandler("cluster.handler", func() http.Handler { return handler })}
	e.served = serveOn(e.coordSrv, ln)
	if err := e.waitReady(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := e.client.Get(e.coordURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator not ready after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the coordinator, the servers and the services, waits for
// every server goroutine, and removes the stores.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.coordSrv != nil {
		e.coordSrv.Shutdown(ctx)
		<-e.served
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, b := range e.backends {
		if b.srv != nil {
			b.srv.Shutdown(ctx)
			<-b.served
		}
		if st := b.state.Load(); st != nil {
			st.close()
		}
	}
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// newRound gives every backend a fresh Service and store.
func (e *serveEnv) newRound(i int) error {
	for j, b := range e.backends {
		st, err := newBackendState(b.runner, filepath.Join(e.dir, fmt.Sprintf("round%d-b%d", i, j)))
		if err != nil {
			return err
		}
		b.state.Swap(st).close()
	}
	return nil
}

// ---- clients -------------------------------------------------------------

// exchange is one client request and its reply.
type exchange struct {
	req        serveReq
	sweep      bool
	status     int
	body       []byte
	start, end int64 // since process start
	err        error

	// Kept by digest once the body is dropped.
	simMS    float64
	cellKeys []string
}

func (x exchange) latency() float64 { return float64(x.end-x.start) / 1e6 }

func (e *serveEnv) do(method, path string, body []byte) exchange {
	var x exchange
	x.start = int64(time.Since(processStart))
	req, err := http.NewRequest(method, e.coordURL+path, bytes.NewReader(body))
	if err != nil {
		x.err = err
		return x
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err == nil {
		x.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		x.status = resp.StatusCode
	}
	x.end = int64(time.Since(processStart))
	x.err = err
	return x
}

// serveRound runs both clients' schedules concurrently, then the sweep
// table.
func (e *serveEnv) serveRound(s *serveSchedule) []exchange {
	var out [2][]exchange
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range s.clients[c] {
				body, err := json.Marshal(rq.body)
				if err != nil {
					out[c] = append(out[c], exchange{req: rq, err: err})
					continue
				}
				x := e.do(http.MethodPost, "/v1/run", body)
				x.req = rq
				out[c] = append(out[c], x)
			}
		}(c)
	}
	wg.Wait()
	sw := e.do(http.MethodGet, fmt.Sprintf("/v1/sweep?entries=%d", s.sweepEntries), nil)
	sw.sweep = true
	return append(append(out[0], out[1]...), sw)
}

// ---- the workload ---------------------------------------------------------

type serveCounts struct {
	simRuns, storeWrites, storeHits, proxied, coalesced int64
}

func (e *serveEnv) counts() serveCounts {
	var c serveCounts
	for _, b := range e.backends {
		m := b.state.Load().svc.Metrics()
		c.simRuns += m.SimRuns.Load()
		c.storeWrites += m.StoreWrites.Load()
		c.storeHits += m.StoreHits.Load()
	}
	c.proxied = e.coord.Metrics().Proxied.Load()
	c.coalesced = e.coord.Metrics().Coalesced.Load()
	return c
}

func runServe(cfg config) (*report, error) {
	sched, err := drawSchedule(cfg.seed, serveShapeFor(cfg.small))
	if err != nil {
		return nil, err
	}
	setupN := 0
	setup, env, err := setupTimes(func() (*serveEnv, error) {
		setupN++
		return startServe(filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), setupN)), cfg.trace)
	}, func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()

	rep := newReport()
	var rounds [][]exchange
	var perRound []serveCounts
	var before serveCounts
	stats := replyStats{}
	var lat []float64
	var instrs int64
	ops := 0
	t, err := measure(cfg.seconds, func(i int) error {
		if err := env.newRound(i); err != nil {
			return err
		}
		before = env.counts()
		return nil
	}, func(int) error {
		xs := env.serveRound(sched)
		after := env.counts()
		perRound = append(perRound, serveCounts{
			simRuns:     after.simRuns - before.simRuns,
			storeWrites: after.storeWrites - before.storeWrites,
			storeHits:   after.storeHits - before.storeHits,
			proxied:     after.proxied - before.proxied,
			coalesced:   after.coalesced - before.coalesced,
		})
		rounds = append(rounds, xs)
		return nil
	}, func(i int) error {
		// Check the round as soon as it ends and keep only what the
		// metrics and the Stats check need, so that memory does not grow
		// with the number of rounds the window holds.
		xs := rounds[i]
		a, f := countExchanges(xs)
		rep.attempted += a
		rep.failed += f
		ops += a - f
		for _, x := range xs {
			if x.err != nil || x.status != http.StatusOK {
				continue
			}
			if !x.sweep {
				lat = append(lat, x.latency())
			}
			instrs += simulatedInstrs(x)
		}
		checkServeRound(rep, sched, xs, perRound[i], stats)
		digest(xs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		setCommon(rep, setup, t, ops, instrs, lat)
	} else if err := env.serveLayers(cfg, rep, rounds, perRound, t); err != nil {
		return nil, err
	}
	// The reference simulations run once peak_rss_mb has been read, so
	// that their memory is not charged to the service.
	ref, err := referenceStats(sched)
	if err != nil {
		return nil, err
	}
	stats.check(rep, ref)
	return rep, nil
}

// digest keeps from each reply what the traced metrics need — a miss's
// sim_ms and the keys of a sweep's cells — and drops the body.
func digest(xs []exchange) {
	for i := range xs {
		x := &xs[i]
		for _, r := range replies(*x) {
			if x.sweep {
				x.cellKeys = append(x.cellKeys, r.Canonical)
			} else if !x.req.hit {
				x.simMS = r.SimMS
			}
		}
		x.body = nil
	}
}

// countExchanges returns how many requests a round attempted and how
// many of them failed: a transport error or any status but 200.
func countExchanges(xs []exchange) (attempted, failed int) {
	for _, x := range xs {
		attempted++
		if x.err != nil || x.status != http.StatusOK {
			failed++
		}
	}
	return attempted, failed
}

// simulatedInstrs counts the instructions a reply's fresh simulations
// committed (0 for store hits).
func simulatedInstrs(x exchange) int64 {
	var n int64
	for _, r := range replies(x) {
		if r.Source == "sim" {
			n += r.Stats.Committed
		}
	}
	return n
}

// replies decodes a /v1/run body, or every result line of a sweep.
func replies(x exchange) []*serve.RunResponse {
	if !x.sweep {
		var r serve.RunResponse
		if json.Unmarshal(x.body, &r) != nil {
			return nil
		}
		return []*serve.RunResponse{&r}
	}
	var out []*serve.RunResponse
	sc := bufio.NewScanner(bytes.NewReader(x.body))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var ev struct {
			Event  string             `json:"event"`
			Result *serve.RunResponse `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "result" && ev.Result != nil {
			out = append(out, ev.Result)
		}
	}
	return out
}

// referenceStats simulates every key of the schedule on the benchmark's
// own Runner through RunSpecs — the independent side of the Stats check.
func referenceStats(s *serveSchedule) (map[string][]byte, error) {
	base := machine.R10000()
	var specs []bench.Spec
	var keys []string
	add := func(req serve.RunRequest) error {
		spec, key, err := serve.NormalizeRequest(&req, base)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		keys = append(keys, key)
		return nil
	}
	seen := map[string]bool{}
	for _, reqs := range s.clients {
		for _, rq := range reqs {
			if !seen[rq.key] {
				seen[rq.key] = true
				if err := add(rq.body); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, w := range bench.All() {
		for _, sc := range schemes {
			if err := add(serve.RunRequest{Workload: w.Name, Scheme: sc.String(), PredictorEntries: s.sweepEntries}); err != nil {
				return nil, err
			}
		}
	}
	res, err := newSerialRunner().RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for i, k := range keys {
		out[k], _ = json.Marshal(res[i].Stats)
	}
	return out, nil
}

// checkServeRound verifies one round's replies and adds their Stats to
// stats for the check against RunSpecs.
func checkServeRound(rep *report, s *serveSchedule, xs []exchange, n serveCounts, stats replyStats) {
	stored := map[string]map[string]json.RawMessage{}
	for _, x := range xs {
		if x.err != nil || x.status != http.StatusOK {
			continue // counted in failed
		}
		rs := replies(x)
		if x.sweep {
			if len(rs) != len(s.sweepKeys) {
				rep.fail("sweep table: %d results, want %d", len(rs), len(s.sweepKeys))
			}
			for _, r := range rs {
				stats.add(rep, r)
			}
			continue
		}
		if len(rs) != 1 {
			rep.fail("request %s: undecodable reply %q", x.req.key, x.body)
			continue
		}
		r := rs[0]
		stats.add(rep, r)
		if r.Canonical != x.req.key {
			rep.fail("request %s answered for %s", x.req.key, r.Canonical)
		}
		want := "sim"
		if x.req.hit {
			want = "store"
		}
		if r.Source != want {
			rep.fail("request %s: source %q, scheduled as %q", x.req.key, r.Source, want)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(x.body, &fields); err != nil {
			rep.fail("request %s: %v", x.req.key, err)
			continue
		}
		delete(fields, "source")
		delete(fields, "sim_ms")
		if !x.req.hit {
			stored[x.req.key] = fields
		} else if miss, ok := stored[x.req.key]; !ok {
			rep.fail("hit %s precedes its miss", x.req.key)
		} else if d := fieldDiff(miss, fields); d != "" {
			rep.fail("hit %s differs from the miss that stored it: %s", x.req.key, d)
		}
	}
	distinct := int64(len(stored) + len(s.sweepKeys))
	if n.simRuns != distinct {
		rep.fail("backends ran %d simulations for %d distinct keys", n.simRuns, distinct)
	}
	if n.coalesced != 0 {
		rep.fail("%d requests coalesced; the clients' keys are disjoint", n.coalesced)
	}
}

// replyStats holds the Stats of every reply by canonical key: a few
// dozen entries however many rounds run.
type replyStats map[string][]byte

// add checks that a reply's key is the SHA-256 of its canonical identity
// and that its Stats equal every earlier reply's for the same key, and
// keeps them.
func (s replyStats) add(rep *report, r *serve.RunResponse) {
	sum := sha256.Sum256([]byte(r.Canonical))
	if hex.EncodeToString(sum[:]) != r.Key {
		rep.fail("reply %s: key %s is not the SHA-256 of its canonical identity", r.Canonical, r.Key)
	}
	got, _ := json.Marshal(r.Stats)
	if prev, ok := s[r.Canonical]; ok && !bytes.Equal(prev, got) {
		rep.fail("reply %s: Stats %s, an earlier reply %s", r.Canonical, got, prev)
		return
	}
	s[r.Canonical] = got
}

// check compares the kept Stats with RunSpecs' for the same keys.
func (s replyStats) check(rep *report, ref map[string][]byte) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := ref[k]
		if !ok {
			rep.fail("reply for unscheduled key %s", k)
		} else if got := s[k]; !bytes.Equal(got, want) {
			rep.fail("reply %s: Stats %s, RunSpecs gives %s", k, got, want)
		}
	}
}

func fieldDiff(a, b map[string]json.RawMessage) string {
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return fmt.Sprintf("field %q", k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("extra field %q", k)
		}
	}
	return ""
}

// ---- traced variant ----------------------------------------------------

// serveLayers links the handler spans to the client requests they
// served (same key, interval inside the request's), writes every span
// with the request's ID, and reports the per-layer metrics.
func (e *serveEnv) serveLayers(cfg config, rep *report, rounds [][]exchange, perRound []serveCounts, t timed) error {
	rec := &recorder{}
	type req struct {
		x      exchange
		op     int64
		span   int64
		coord  int64
		coordD int64
		backD  int64
	}
	var reqs []*req
	byKey := map[string][]*req{}
	for _, xs := range rounds {
		for _, x := range xs {
			r := &req{x: x, op: int64(len(reqs) + 1)}
			name := "client.run"
			if x.sweep {
				name = "client.sweep"
			}
			r.span = rec.add(span{Op: r.op, Name: name, Start: x.start, End: x.end})
			reqs = append(reqs, r)
			keys := []string{x.req.key}
			if x.sweep {
				keys = append([]string{sweepKey}, x.cellKeys...)
			}
			for _, k := range keys {
				byKey[k] = append(byKey[k], r)
			}
		}
	}
	e.mu.Lock()
	hs := append([]handlerSpan(nil), e.handlers...)
	e.mu.Unlock()
	sort.Slice(hs, func(a, b int) bool { return hs[a].name < hs[b].name }) // cluster.* before serve.*
	for _, h := range hs {
		var owner *req
		for _, r := range byKey[h.key] {
			if r.x.start <= h.start && h.end <= r.x.end {
				owner = r
				break
			}
		}
		if owner == nil {
			continue
		}
		parent := owner.span
		if h.name == "serve.handler" && owner.coord != 0 {
			parent = owner.coord
		}
		n := rec.add(span{Op: owner.op, Parent: parent, Name: h.name, Start: h.start, End: h.end})
		switch h.name {
		case "cluster.handler":
			owner.coord = n
			owner.coordD = h.end - h.start
		case "serve.handler":
			if !owner.x.sweep {
				owner.backD = h.end - h.start
			}
		}
	}
	if err := rec.write(cfg.spans); err != nil {
		return err
	}

	var hit, miss, hHit, hMiss, proxy, client, simMS []float64
	for _, r := range reqs {
		x := r.x
		if x.sweep || x.err != nil || x.status != http.StatusOK {
			continue
		}
		if x.req.hit {
			hit = append(hit, x.latency())
		} else {
			miss = append(miss, x.latency())
			simMS = append(simMS, x.simMS)
		}
		if r.backD > 0 {
			if x.req.hit {
				hHit = append(hHit, float64(r.backD)/1e6)
			} else {
				hMiss = append(hMiss, float64(r.backD)/1e6)
			}
		}
		if r.coordD > 0 {
			proxy = append(proxy, float64(r.coordD-r.backD)/1e6)
			client = append(client, x.latency()-float64(r.coordD)/1e6)
		}
	}
	got := map[string]float64{
		"serve.hit_ms_p50":          percentile(hit, 50),
		"serve.hit_ms_p90":          percentile(hit, 90),
		"serve.miss_ms_p50":         percentile(miss, 50),
		"serve.miss_ms_p90":         percentile(miss, 90),
		"serve.handler_ms_p50.hit":  percentile(hHit, 50),
		"serve.handler_ms_p50.miss": percentile(hMiss, 50),
		"serve.sim_ms_p50":          percentile(simMS, 50),
		"cluster.proxy_ms_p50":      percentile(proxy, 50),
		"http.client_ms_p50":        percentile(client, 50),
		"traced.wall_s":             median(durSeconds(t.rounds)),
		"traced.cpu_s":              median(durSeconds(t.cpu)),
	}
	var sims, writes, hits, proxied, coalesced []float64
	for _, c := range perRound {
		sims = append(sims, float64(c.simRuns))
		writes = append(writes, float64(c.storeWrites))
		hits = append(hits, float64(c.storeHits))
		proxied = append(proxied, float64(c.proxied))
		coalesced = append(coalesced, float64(c.coalesced))
	}
	got["serve.sim_runs"] = median(sims)
	got["serve.store_writes"] = median(writes)
	got["serve.store_hits"] = median(hits)
	got["cluster.proxied"] = median(proxied)
	got["cluster.coalesced"] = median(coalesced)
	get, put, err := e.storeTimes(rounds[len(rounds)-1])
	if err != nil {
		return err
	}
	got["serve.store_get_ms_p50"] = get
	got["serve.store_put_ms_p50"] = put
	fillLayers(rep, got)
	return nil
}

// storeTimes times Store.Get of every key the last round stored, on the
// backend store that holds it, and Store.Put of the same replies into a
// scratch store; it returns both medians in milliseconds.
func (e *serveEnv) storeTimes(xs []exchange) (float64, float64, error) {
	var stores []*serve.Store
	for _, b := range e.backends {
		st, err := serve.OpenStore(b.state.Load().dir)
		if err != nil {
			return 0, 0, err
		}
		stores = append(stores, st)
	}
	scratch, err := serve.OpenStore(filepath.Join(e.dir, "store-put"))
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for _, x := range xs {
		if x.sweep || x.req.hit || x.status != http.StatusOK {
			continue
		}
		for _, st := range stores {
			start := time.Now()
			res, ok, _, err := st.Get(x.req.key)
			d := time.Since(start)
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				continue
			}
			gets = append(gets, ms(d))
			start = time.Now()
			if err := scratch.Put(x.req.key, res); err != nil {
				return 0, 0, err
			}
			puts = append(puts, ms(time.Since(start)))
		}
	}
	return percentile(gets, 50), percentile(puts, 50), nil
}
