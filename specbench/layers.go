package main

// perLayer lists every per-layer metric the traced run reports, in
// print order, with its unit and better direction (BENCHMARK.json
// carries the same list). Each workload reports all of them; a layer the
// workload leaves idle reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"interp.predecode_ms", "ms", "lower"},
	{"trace.capture_ms", "ms", "lower"},
	{"trace.capture_minstr_s", "Minstr/s", "higher"},
	{"trace.bytes_per_kevent", "B/kevent", "lower"},
	{"trace.replay_minstr_s", "Minstr/s", "higher"},
	{"core.optimize_ms", "ms", "lower"},
	{"core.proposed_cycle_speedup", "x", "higher"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"pipeline.run_ms", "ms", "lower"},
	{"pipeline.run_minstr_s", "Minstr/s", "higher"},
	{"pipeline.run_alloc_kb", "KB", "lower"},
	{"pipeline.run_taint_ms", "ms", "lower"},
	{"pipeline.batch_drain_ms", "ms", "lower"},
	{"pipeline.batch_lane_minstr_s", "Minstr/s", "higher"},
	{"pipeline.batch_alloc_kb", "KB", "lower"},
	{"pipeline.lanes_per_drain", "lanes", "higher"},
	{"pipeline.skip_rate", "ratio", "higher"},
	{"pipeline.sim_cycles", "cycles", "lower"},
	{"bench.arch_runs", "count", "lower"},
	{"bench.trace_drains", "count", "lower"},
	{"bench.sim_lanes", "count", "lower"},
	{"bench.other_ms", "ms", "lower"},
	{"explore.expand_ms", "ms", "lower"},
	{"explore.other_ms", "ms", "lower"},
	{"serve.hit_ms_p50", "ms", "lower"},
	{"serve.hit_ms_p90", "ms", "lower"},
	{"serve.miss_ms_p50", "ms", "lower"},
	{"serve.miss_ms_p90", "ms", "lower"},
	{"serve.handler_ms_p50.hit", "ms", "lower"},
	{"serve.handler_ms_p50.miss", "ms", "lower"},
	{"serve.sim_ms_p50", "ms", "lower"},
	{"serve.store_get_ms_p50", "ms", "lower"},
	{"serve.store_put_ms_p50", "ms", "lower"},
	{"serve.store_hits", "count", "higher"},
	{"serve.store_writes", "count", "lower"},
	{"serve.sim_runs", "count", "lower"},
	{"cluster.proxy_ms_p50", "ms", "lower"},
	{"cluster.proxied", "count", "lower"},
	{"cluster.coalesced", "count", "lower"},
	{"http.client_ms_p50", "ms", "lower"},
	{"traced.wall_s", "s", "lower"},
	{"traced.cpu_s", "s", "lower"},
	{"traced.layer_coverage", "ratio", "higher"},
}

// fillLayers reports every per-layer metric in table order, taking the
// values the workload measured and 0 for the layers it leaves idle.
func fillLayers(rep *report, got map[string]float64) {
	known := map[string]bool{}
	for _, l := range perLayer {
		rep.set(l.name, l.unit, got[l.name])
		known[l.name] = true
	}
	for name := range got {
		if !known[name] {
			rep.fail("measured %s, which is not a declared per-layer metric", name)
		}
	}
}
