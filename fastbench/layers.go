package main

// perLayer lists every per-layer metric with its unit. A traced run starts
// from zero for each, so a workload that does not exercise a layer reports 0
// for it (the "nothing" rows of README.md's layer map).
var perLayer = [][2]string{
	{"codec.decode_ms", "ms"}, {"codec.encode_ms", "ms"},
	{"http.req_bytes", "B/op"}, {"http.resp_bytes", "B/op"},
	{"plan.fingerprint_ms", "ms"}, {"plan.compile_ms", "ms"},
	{"plan_cache.hit_ratio", "ratio"}, {"plan_cache.misses", "1/op"},
	{"serve.admission_wait_ms", "ms"}, {"serve.service_ms", "ms"},
	{"serve.batch_size_mean", "count"}, {"serve.rejected", "1/op"},
	{"exec.execute_ms", "ms"},
	{"keyswitch.count", "1/op"}, {"keyswitch.modup_ms", "ms"}, {"keyswitch.keymult_ms", "ms"},
	{"keyswitch.moddown_ms", "ms"}, {"keyswitch.klss_share", "ratio"},
	{"ckks.encrypt_ms", "ms"}, {"ring.pool_miss_ratio", "ratio"},
	{"sessions.restored", "1/op"}, {"sessions.evicted", "1/op"},
	{"snapshot.restore_ms", "ms"}, {"snapshot.write_ms", "ms"}, {"snapshot.bytes", "B"},
	{"persist.journal_ms", "ms"}, {"persist.state_bytes", "B/op"}, {"idem.recorded", "1/op"},
	{"aether.analyze_ms", "ms"}, {"sim.simulate_ms", "ms"},
	{"sim.simulate_ms.bootstrap", "ms"}, {"sim.simulate_ms.helr256", "ms"},
	{"sim.simulate_ms.helr1024", "ms"}, {"sim.simulate_ms.resnet20", "ms"},
	{"sim.allocs", "count"}, {"sim.alloc_bytes", "B"},
	{"hemera.pool_hit_ratio", "ratio"},
	{"aether.decision.hybrid", "count"}, {"aether.decision.klss", "count"}, {"aether.decision.hoisted", "count"},
	{"sim.simulated_ms_sum", "ms"},
	{"loadgen.gap_p99_ms", "ms"}, {"loadgen.client_cpu_share", "ratio"},
	{"layer.codec_ms", "ms"}, {"layer.plan_ms", "ms"}, {"layer.serve_ms", "ms"}, {"layer.exec_ms", "ms"},
	{"layer.persist_ms", "ms"}, {"layer.sim_ms", "ms"},
	{"self.client_ms", "ms"}, {"self.http_ms", "ms"}, {"self.codec_ms", "ms"}, {"self.plan_ms", "ms"},
	{"self.exec_ms", "ms"}, {"self.persist_ms", "ms"}, {"self.sim_ms", "ms"},
	{"trace.unattributed_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

func setLayerDefaults(o *outcome) {
	for _, m := range perLayer {
		o.set(m[0], m[1], 0)
	}
}
