package obs

// This file is the single catalog of registry metric names. Every name
// must match ^fabriccrdt_[a-z0-9_]+$ and be declared exactly once, no
// .go file outside internal/obs may contain a "fabriccrdt_..." string
// literal (call sites reference these constants; the obs tests exercise
// the registry with literals), and every constant here must be
// referenced somewhere — all enforced by the metricnames analyzer
// (internal/lint), which runs as part of `make lint`. See
// docs/OBSERVABILITY.md for the full catalog with types and labels.
const (
	// Commit path (per-peer registries; labels peer, channel).
	MetricCommitStageSeconds  = "fabriccrdt_commit_stage_seconds" // histogram{peer,channel,stage}
	MetricPeerBlockHeight     = "fabriccrdt_peer_block_height"    // gauge{peer,channel}
	MetricPeerBlocksCommitted = "fabriccrdt_peer_blocks_total"    // counter{peer,channel}
	MetricPeerTxsCommitted    = "fabriccrdt_peer_txs_total"       // counter{peer,channel,result}

	// Retired: the dependency-scheduled finalize that registered these
	// counters is gone, so nothing emits them and they read 0. The names
	// stay only because bench/passes.go still reads them; the benchmark
	// change that drops its txgraph rows (ROADMAP 0A(g)) deletes them.
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedBlocks = "fabriccrdt_sched_blocks_total" // counter{peer}
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedTxs = "fabriccrdt_sched_txs_total" // counter{peer}
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedGroups = "fabriccrdt_sched_groups_total" // counter{peer}
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedConflicted = "fabriccrdt_sched_conflicted_txs_total" // counter{peer}
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedEdges = "fabriccrdt_sched_edges_total" // counter{peer}
	//lint:ignore metricnames retired; read only by bench/passes.go until the benchmark change ROADMAP 0A(g) drops its txgraph rows
	MetricSchedWaves = "fabriccrdt_sched_mvcc_waves_total" // counter{peer}

	// State and block stores (per-peer registries; labels peer, channel).
	MetricStatedbKeys        = "fabriccrdt_statedb_keys"               // gauge{peer,channel}
	MetricStatedbLogBytes    = "fabriccrdt_statedb_log_bytes"          // gauge{peer,channel}
	MetricStatedbAppends     = "fabriccrdt_statedb_appends_total"      // counter{peer,channel}
	MetricStatedbFsyncs      = "fabriccrdt_statedb_fsyncs_total"       // counter{peer,channel}
	MetricStatedbCompactions = "fabriccrdt_statedb_compactions_total"  // counter{peer,channel}
	MetricStatedbFlushes     = "fabriccrdt_statedb_flushes_total"      // counter{peer,channel} (LSM)
	MetricStatedbRuns        = "fabriccrdt_statedb_runs"               // gauge{peer,channel} (LSM)
	MetricStatedbCacheHits   = "fabriccrdt_statedb_cache_hits_total"   // counter{peer,channel} (LSM)
	MetricStatedbCacheMisses = "fabriccrdt_statedb_cache_misses_total" // counter{peer,channel} (LSM)
	MetricBlockstoreHeight   = "fabriccrdt_blockstore_height"          // gauge{peer,channel}
	MetricBlockstoreLogBytes = "fabriccrdt_blockstore_log_bytes"       // gauge{peer,channel}
	MetricBlockstoreAppends  = "fabriccrdt_blockstore_appends_total"   // counter{peer,channel}
	MetricBlockstoreFsyncs   = "fabriccrdt_blockstore_fsyncs_total"    // counter{peer,channel}

	// History cursors, the one unbounded handoff queue family
	// (scrape-time gauges).
	MetricHistoryLagBlocks = "fabriccrdt_history_lag_blocks" // gauge{channel}
	MetricHistoryStreams   = "fabriccrdt_history_streams"    // gauge{channel}

	// Wire transport (process-global Default registry).
	MetricWireFrames      = "fabriccrdt_wire_frames_total"       // counter{side,dir}
	MetricWireBytes       = "fabriccrdt_wire_bytes_total"        // counter{side,dir}
	MetricWireFrameErrors = "fabriccrdt_wire_frame_errors_total" // counter{side}
	MetricWireReconnects  = "fabriccrdt_wire_reconnects_total"   // counter
	MetricDeliverRetries  = "fabriccrdt_deliver_retries_total"   // counter
	MetricTransportCalls  = "fabriccrdt_transport_calls_total"   // counter{op}
)
