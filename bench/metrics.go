package main

import "fmt"

// metricDef is one metric of the catalogue. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesCatalogue).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far an end-to-end metric's median may worsen, as a
	// share of the baseline median, before -compare calls it a regression.
	// Per-layer metrics have none.
	Bound float64
	// Slack is an absolute allowance in the metric's unit: -compare ignores
	// a worsening or a spread smaller than it, however large as a share.
	// Only setup_s has one — 25% of a 12 ms set-up is scheduler noise.
	Slack float64
}

// endToEnd are the metrics a user of the network would see, measured with
// tracing off. The last, failed_share, is 0 on every healthy run, so the
// contract carries it as failed/attempted instead of as a metric, and
// -compare holds it to "any increase" instead of a bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.5},
	{Name: "commit_tps", Unit: "tx/s", Better: "higher", Bound: 0.20},
	{Name: "commit_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "commit_latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "catchup_tps", Unit: "tx/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_ms_per_tx", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "peer_rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: failedShare, Unit: "ratio", Better: "lower"},
}

const failedShare = "failed_share"

// perLayer is the per-layer catalogue, in the order it is printed.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// A. Span join over the traced paced phase.
	add("ms", "lower",
		"client.prepare_self_ms_p50", "peer.endorse_ms_p50", "orderer.order_ms_p50",
		"transport.deliver_ms_p50", "peer.commit_ms_p50", "transport.gateway_self_ms_p50",
		"trace.unaccounted_ms_p50")
	add("%", "lower", "trace.overhead_pct")

	// B. Counters at the process boundary, over the saturation phase.
	add("B", "lower", "wire.bytes_per_tx")
	add("count", "lower", "wire.frames_per_tx", "wire.frame_errors", "wire.reconnects", "transport.deliver_retries")
	add("count", "higher", "orderer.txs_per_block")
	add("ms", "lower", "orderer.cpu_ms_per_tx", "peer.cpu_ms_per_tx", "driver.cpu_ms_per_tx")
	for _, stage := range stageRows {
		add("us", "lower", "peer.stage_"+stage+"_us_per_tx")
	}
	add("us", "lower", "peer.prepare_us_per_tx", "peer.finalize_us_per_tx")
	add("us", "higher", "peer.overlap_us_per_tx")
	add("ratio", "lower", "peer.stage_sum_over_wall")
	add("ratio", "lower", "txgraph.conflict_rate")
	add("count", "lower", "txgraph.waves_per_block", "txgraph.edges_per_tx")
	add("count", "lower", "statedb.keys")
	add("B", "lower", "statedb.log_bytes_per_tx")
	add("count", "lower", "statedb.flushes", "statedb.compactions")
	add("ratio", "higher", "statedb.cache_hit_ratio")
	add("count", "lower", "statedb.fsyncs_per_block")
	add("B", "lower", "statedb.disk_bytes_per_tx", "blockstore.log_bytes_per_tx")
	add("count", "lower", "blockstore.fsyncs_per_block")
	add("B", "lower", "blockstore.disk_bytes_per_tx")
	add("ms", "lower", "driver.generator_lag_p95_ms")
	add("count", "lower", "driver.paced_backlog_end")
	add("ms", "lower", "driver.commit_latency_p99_ms")
	add("count", "higher", "driver.samples")
	add("s", "lower", "driver.build_s")

	// C. Layer replay in the benchmark process.
	cost := func(row, per string, withBytes bool) {
		add("ns", "lower", row+"_ns_per_"+per)
		add("count", "lower", row+"_allocs_per_"+per)
		if withBytes {
			add("B", "lower", row+"_bytes_per_"+per)
		}
	}
	cost("ledger.block_marshal", "tx", true)
	cost("ledger.block_unmarshal", "tx", true)
	add("B", "lower", "ledger.block_encoded_bytes_per_tx")
	cost("peer.prepare_block", "tx", true)
	cost("peer.finalize_block", "tx", true)
	cost("txgraph.build", "tx", false)
	cost("mvcc.validate_block", "tx", false)
	cost("core.merge_block", "tx", true)
	cost("jsoncrdt.merge_json", "op", true)
	cost("jsoncrdt.marshal_binary", "op", true)
	cost("jsoncrdt.unmarshal_binary", "op", true)
	add("B", "lower", "jsoncrdt.doc_state_bytes")
	cost("orderer.cut", "tx", false)
	cost("client.prepare", "tx", false)
	cost("endorse.endorse", "tx", false)
	cost("cryptoid.sign", "op", false)
	cost("cryptoid.verify", "op", false)
	cost("blockstore.append", "tx", false)
	cost("blockstore.get", "tx", false)
	for _, backend := range stateBackends {
		for _, op := range []string{"apply", "get", "range"} {
			cost("statedb."+backend+"."+op, "key", false)
		}
	}
	add("ns", "lower", "statedb.lsm.get_miss_ns")
	add("us", "lower", "wire.unary_rtt_us", "wire.broadcast_rtt_us", "wire.deliver_us_per_block")
	return out
}

// stageRows are the commit stages reported per transaction; they are the
// work stages whose sum peer.stage_sum_over_wall sets against the
// prepare+finalize wall clock.
var stageRows = []string{"decode", "endorse", "dedup", "schedule", "merge", "mvcc", "apply", "append"}

// stateBackends are the statedb backends the layer replay times.
var stateBackends = []string{"memory", "sharded", "disk", "lsm"}

// lookup finds a metric in a catalogue.
func lookup(catalogue []metricDef, name string) (metricDef, error) {
	for _, m := range catalogue {
		if m.Name == name {
			return m, nil
		}
	}
	return metricDef{}, fmt.Errorf("metric %q is not in the catalogue", name)
}
