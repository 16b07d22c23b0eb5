package main

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"fabriccrdt/internal/obs"
)

// maxUnaccountedShare is how much of the median latency the span join may
// leave unexplained before the traced run is rejected.
const maxUnaccountedShare = 0.20

// endToEndPass is the untraced run: the three timed phases at full size,
// the stream checks, and the end-to-end metrics. The blocks are not
// committed again in this process here — on the hot workload that replay
// costs as much as the catch-up phase — so the hot documents' length is
// checked by the per-layer pass, which replays anyway.
func endToEndPass(env *benchEnv, w workloadSpec, rep *report) error {
	size := sizeRun(w, env.seconds, 1)
	u, err := runUntraced(env, w, size, true)
	if u != nil {
		rep.FlagLines = u.net.flagLines()
		rep.Attempted += u.tally.submitted
		rep.Failed += u.tally.failed
	}
	if err != nil {
		return err
	}
	lat := summarizeLatency(samplesOf(u.paced.records))
	satTxs := float64(len(u.sat.records))
	cpu := (u.cpuAfter.orderer - u.cpuBefore.orderer) +
		(u.cpuAfter.peers[0] - u.cpuBefore.peers[0]) + (u.cpuAfter.peers[1] - u.cpuBefore.peers[1])
	rows := []struct {
		phase, name string
		value       float64
		samples     int
	}{
		{"setup", "setup_s", median(u.setups), len(u.setups)},
		{"saturation", "commit_tps", satTxs / u.sat.wall.Seconds(), len(u.sat.records)},
		{"paced", "commit_latency_p50_ms", lat.p50, lat.samples},
		{"paced", "commit_latency_p95_ms", lat.p95, lat.samples},
		{"catchup", "catchup_tps", float64(u.tally.submitted) / u.catchup.Seconds(), u.tally.submitted},
		{"saturation", "cpu_ms_per_tx", ms(cpu) / satTxs, len(u.sat.records)},
		{"saturation", "peer_rss_peak_mb", u.peakRSS, 2},
		{"paced+saturation", failedShare, float64(u.tally.failed) / float64(u.tally.submitted), u.tally.submitted},
	}
	for _, r := range rows {
		rep.e2e(r.phase, r.name, r.value, r.samples)
	}
	rep.percentileOf("commit_latency_p50_ms", 50)
	rep.percentileOf("commit_latency_p95_ms", 95)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("phases: paced %d txs at %.0f tx/s open loop (%.1f s), saturation %d txs closed loop %d in flight (%.1f s), catch-up %d txs (%.1f s)",
			size.PacedN, w.PacedRate, size.PacedDur, size.SatN, inFlight, u.sat.wall.Seconds(), u.tally.submitted, u.catchup.Seconds()),
		fmt.Sprintf("open loop: generator lag p95 %.3f ms, backlog %d after the %v drain allowance", lat.lagP95, u.paced.backlogEnd, drainAllowance),
		"no network delay is injected: latency is processor time plus batching (block 25, batch timeout "+ordererBatchTimeout+")")
	if w.Durable {
		rep.Notes = append(rep.Notes, "flush policy: -fsync off, state WAL and block log reach the OS page cache per block, the disk on flush/close")
	}
	return nil
}

// perLayerPass is the per-layer run: untraced phases at reduced size for
// the process-boundary counters, a traced paced phase for the span join,
// and the layer replay on the run's own blocks.
func perLayerPass(env *benchEnv, w workloadSpec, rep *report) error {
	size := sizeRun(w, env.seconds, perLayerScale)
	u, err := runUntraced(env, w, size, false)
	if u != nil {
		rep.Attempted += u.tally.submitted
		rep.Failed += u.tally.failed
		if rep.FlagLines == nil {
			rep.FlagLines = u.net.flagLines()
		}
	}
	if err != nil {
		return err
	}
	untracedLat := summarizeLatency(samplesOf(u.paced.records))
	if err := counterRows(env, w, u, untracedLat, rep); err != nil {
		return err
	}
	if err := tracedRows(env, w, size, untracedLat, rep); err != nil {
		return err
	}
	gen := newGenerator(w)
	if err := layerReplay(env, w, gen, u, rep); err != nil {
		return err
	}
	if missing := rep.missing(perLayer); len(missing) > 0 {
		return fmt.Errorf("per-layer metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// counterRows turns the between-phase /metrics scrapes and /proc readings
// into the section-B rows: deltas over the saturation phase, per committed
// transaction.
func counterRows(env *benchEnv, w workloadSpec, u *untraced, lat latencySummary, rep *report) error {
	txs := float64(len(u.sat.records))
	n := len(u.sat.records)
	before, after := u.scrapeBefore, u.scrapeAfter

	// Every byte and frame crosses exactly one server side: summing the
	// three processes' server-side counters counts each once.
	wireDelta := func(family string, labels ...string) float64 {
		d := delta(before.orderer, after.orderer, family, labels...)
		for i := range before.peers {
			d += delta(before.peers[i], after.peers[i], family, labels...)
		}
		return d
	}
	server := label("side", "server")
	peerDelta := func(family string, labels ...string) float64 {
		return delta(before.peers[0], after.peers[0], family, labels...) +
			delta(before.peers[1], after.peers[1], family, labels...)
	}
	peerGauge := func(family string) float64 {
		return (after.peers[0].sum(family) + after.peers[1].sum(family)) / 2
	}

	blocks := peerDelta(obs.MetricPeerBlocksCommitted) / 2
	type row struct {
		name  string
		value float64
	}
	rows := []row{
		{"wire.bytes_per_tx", wireDelta(obs.MetricWireBytes, server) / txs},
		{"wire.frames_per_tx", wireDelta(obs.MetricWireFrames, server) / txs},
		{"wire.frame_errors", wireDelta(obs.MetricWireFrameErrors)},
		{"wire.reconnects", wireDelta(obs.MetricWireReconnects)},
		{"transport.deliver_retries", wireDelta(obs.MetricDeliverRetries)},
		{"orderer.txs_per_block", txs / blocks},
		{"orderer.cpu_ms_per_tx", ms(u.cpuAfter.orderer-u.cpuBefore.orderer) / txs},
		{"peer.cpu_ms_per_tx", ms(u.cpuAfter.peers[0]-u.cpuBefore.peers[0]+u.cpuAfter.peers[1]-u.cpuBefore.peers[1]) / 2 / txs},
		{"driver.cpu_ms_per_tx", ms(u.cpuAfter.driver-u.cpuBefore.driver) / txs},
	}

	// Stage histograms: seconds summed over both peers, reported as the
	// mean per peer per transaction.
	stageUS := func(stage string) float64 {
		return peerDelta(obs.MetricCommitStageSeconds+"_sum", label("stage", stage)) / 2 * 1e6 / txs
	}
	var work float64
	for _, stage := range stageRows {
		v := stageUS(stage)
		work += v
		rows = append(rows, row{"peer.stage_" + stage + "_us_per_tx", v})
	}
	prepare, finalize := stageUS("prepare"), stageUS("finalize")
	rows = append(rows,
		row{"peer.prepare_us_per_tx", prepare},
		row{"peer.finalize_us_per_tx", finalize},
		row{"peer.overlap_us_per_tx", stageUS("overlap")},
		row{"peer.stage_sum_over_wall", work / (prepare + finalize)},
	)

	// Scheduler counters exist only while finalize is dependency-scheduled
	// (more than one finalize worker per channel); otherwise they stay 0.
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	schedTxs := peerDelta(obs.MetricSchedTxs)
	rows = append(rows,
		row{"txgraph.conflict_rate", ratio(peerDelta(obs.MetricSchedConflicted), schedTxs)},
		row{"txgraph.waves_per_block", ratio(peerDelta(obs.MetricSchedWaves), peerDelta(obs.MetricSchedBlocks))},
		row{"txgraph.edges_per_tx", ratio(peerDelta(obs.MetricSchedEdges), schedTxs)},
	)

	// Storage: zero unless the workload is durable.
	hits, misses := peerDelta(obs.MetricStatedbCacheHits), peerDelta(obs.MetricStatedbCacheMisses)
	rows = append(rows,
		row{"statedb.keys", peerGauge(obs.MetricStatedbKeys)},
		row{"statedb.log_bytes_per_tx", peerDelta(obs.MetricStatedbLogBytes) / 2 / txs},
		row{"statedb.flushes", peerDelta(obs.MetricStatedbFlushes) / 2},
		row{"statedb.compactions", peerDelta(obs.MetricStatedbCompactions) / 2},
		row{"statedb.cache_hit_ratio", ratio(hits, hits+misses)},
		row{"statedb.fsyncs_per_block", peerDelta(obs.MetricStatedbFsyncs) / 2 / blocks},
		row{"statedb.disk_bytes_per_tx", float64(u.diskAfter.state-u.diskBefore.state) / 2 / txs},
		row{"blockstore.log_bytes_per_tx", peerDelta(obs.MetricBlockstoreLogBytes) / 2 / txs},
		row{"blockstore.fsyncs_per_block", peerDelta(obs.MetricBlockstoreFsyncs) / 2 / blocks},
		row{"blockstore.disk_bytes_per_tx", float64(u.diskAfter.blocks-u.diskBefore.blocks) / 2 / txs},
	)
	for _, r := range rows {
		rep.layer("saturation", r.name, r.value, n)
	}

	// The driver's own rows, from the untraced paced phase.
	for _, r := range []row{
		{"driver.generator_lag_p95_ms", lat.lagP95},
		{"driver.paced_backlog_end", float64(u.paced.backlogEnd)},
		{"driver.commit_latency_p99_ms", lat.tail},
		{"driver.samples", float64(lat.samples)},
	} {
		rep.layer("paced", r.name, r.value, lat.samples)
	}
	rep.percentileOf("driver.commit_latency_p99_ms", lat.tailRank)
	if lat.tailRank != 99 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("driver.commit_latency_p99_ms reports p%g: the highest percentile with at least %d of the %d samples beyond it",
			lat.tailRank, minBeyond, lat.samples))
	}
	rep.layer("build", "driver.build_s", env.buildS, 1)
	return nil
}

// tracedRows runs the paced phase again on a fresh network with every
// process tracing, joins the processes' trace files with the driver's own
// spans on trace ID, and reports where the median transaction's latency
// went.
func tracedRows(env *benchEnv, w workloadSpec, size sizing, untracedLat latencySummary, rep *report) error {
	tracer := obs.EnableTracing("driver")
	defer obs.SetDefaultTracer(nil)
	n, err := startNetwork(env.ps, w, true, env.signer)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	d := newDriver(n, env.seed)
	paced, err := d.runPaced(size.PacedN, w.PacedRate)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	t := newTally()
	t.add(d.gen, paced.records)
	rep.Attempted += t.submitted
	rep.Failed += t.failed
	// A clean shutdown is what makes each process write its trace file.
	if err := n.shutdown(); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if err := t.err(); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}

	spans := tracer.Spans() // the driver's: client.prepare, kept in memory
	for _, nd := range []node{n.orderer, n.peers[0].node, n.peers[1].node} {
		fileSpans, err := readTraceFile(nd.traceFile)
		if err != nil {
			return fmt.Errorf("traced run: %s: %w", nd.name, err)
		}
		spans = append(spans, fileSpans...)
	}
	driverSpans := make(map[string]driverSpan, len(paced.records))
	for i := range paced.records {
		r := &paced.records[i]
		driverSpans[r.traceID] = driverSpan{due: r.due, committed: r.committed}
	}
	rows, incomplete := joinTraces(spans, driverSpans)
	if incomplete > len(paced.records)/10 {
		return fmt.Errorf("traced run: %d of %d traces are missing a span", incomplete, len(paced.records))
	}

	tracedLat := summarizeLatency(samplesOf(paced.records))
	var unaccounted float64
	for _, col := range []struct {
		name string
		of   func(txBreakdown) time.Duration
	}{
		{"client.prepare_self_ms_p50", func(b txBreakdown) time.Duration { return b.prepareSelf }},
		{"peer.endorse_ms_p50", func(b txBreakdown) time.Duration { return b.endorse }},
		{"orderer.order_ms_p50", func(b txBreakdown) time.Duration { return b.order }},
		{"transport.deliver_ms_p50", func(b txBreakdown) time.Duration { return b.deliver }},
		{"peer.commit_ms_p50", func(b txBreakdown) time.Duration { return b.commit }},
		{"transport.gateway_self_ms_p50", func(b txBreakdown) time.Duration { return b.gatewaySelf }},
		{"trace.unaccounted_ms_p50", func(b txBreakdown) time.Duration { return b.unaccounted }},
	} {
		unaccounted = medianOf(rows, col.of) // the last column's is the one checked below
		rep.layer("traced paced", col.name, unaccounted, len(rows))
	}
	overhead := (tracedLat.p50 - untracedLat.p50) / untracedLat.p50 * 100
	rep.layer("traced paced", "trace.overhead_pct", overhead, len(rows))
	rep.Notes = append(rep.Notes, fmt.Sprintf("traced paced phase: %d txs, p50 %.3f ms traced vs %.3f ms untraced; %d traces joined, %d incomplete",
		len(paced.records), tracedLat.p50, untracedLat.p50, len(rows), incomplete))
	if unaccounted > maxUnaccountedShare*tracedLat.p50 {
		return fmt.Errorf("traced run: the span join leaves %.3f ms of the %.3f ms median latency unaccounted for (limit %.0f%%)",
			unaccounted, tracedLat.p50, maxUnaccountedShare*100)
	}
	return nil
}

// diskUsage is the bytes under the two serving peers' data directories,
// split into block-store files and everything else (the state store).
type diskUsage struct{ state, blocks int64 }

// measureDisk walks the serving peers' data directories; both figures are
// zero on workloads without one.
func measureDisk(n *network) (diskUsage, error) {
	var u diskUsage
	if !n.w.Durable {
		return u, nil
	}
	for _, org := range servingOrgs {
		root := filepath.Join(n.dir, org)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a compaction removed the file mid-walk
			}
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if strings.Contains(filepath.ToSlash(rel), "/blocks/") {
				u.blocks += info.Size()
			} else {
				u.state += info.Size()
			}
			return nil
		})
		if err != nil {
			return u, fmt.Errorf("measuring %s: %w", root, err)
		}
	}
	return u, nil
}
