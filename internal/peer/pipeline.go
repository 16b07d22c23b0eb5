package peer

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/parallel"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
	"fabriccrdt/internal/txgraph"
)

// State backend names for CommitterConfig.Backend (aliases of the channel
// subsystem's constants, kept here so existing peer-level call sites read
// naturally).
const (
	// BackendMemory is the trivial single-lock in-memory map.
	BackendMemory = channel.BackendMemory
	// BackendSharded is the in-memory backend with per-shard locks.
	BackendSharded = channel.BackendSharded
	// BackendDisk is the persistent append-only-log backend; requires
	// DataDir. A peer reopening the same DataDir resumes every channel
	// from its last committed block instead of replaying the chain.
	BackendDisk = channel.BackendDisk
	// BackendLSM is the log-structured persistent backend (memtable +
	// sorted runs + bloom filters + block cache, docs/STATEDB.md);
	// requires DataDir. Resumes like BackendDisk, but never rebuilds a
	// full in-memory index on open, so world state can outgrow RAM.
	BackendLSM = channel.BackendLSM
)

// CommitterConfig selects the world-state backend behind the commit
// pipeline and its durability (DESIGN.md §4, §5). It is the channel
// subsystem's configuration type: one CommitterConfig applies to each
// channel the peer joins, and each channel gets its own backend instance.
type CommitterConfig = channel.CommitterConfig

// Commit pipeline stage names, as reported by CommitTimings. Decode and
// endorse form the stateless prepare stage (PrepareBlockOn); the rest run
// serialized per channel in the finalize stage (FinalizeBlockOn). The
// overlap pseudo-stage is recorded only by the async delivery pipeline
// (CommitPipeline): it measures how much of a block's prepare work ran
// hidden behind the previous block's finalize.
//
// Each work stage reports its own wall clock. Under the async pipeline and
// the scheduled finalize (more than one commit worker) the stages overlap —
// prepare of block N+1 runs behind finalize of N, and merge runs beside
// mvcc — so
// summing stage totals OVERSTATES elapsed time (it approximates CPU time
// instead). The prepare and finalize wrapper stages measure the two
// pipeline halves' true wall clock, and CommitAggregate reports both views
// without double counting.
const (
	StageDecode   = "decode"    // serialize + re-parse the delivered block
	StageDedup    = "dedup"     // duplicate transaction-ID screening
	StageEndorse  = "endorse"   // signature + endorsement-policy checks (parallel)
	StageSchedule = "schedule"  // dependency-graph + wavefront construction (scheduled finalize only)
	StageMerge    = "merge"     // CRDT merge engine (parallel per key-group)
	StageMVCC     = "mvcc"      // MVCC validation (wavefront-parallel when scheduled)
	StageMVCCWave = "mvcc_wave" // one MVCC wavefront (contained in mvcc; per-wave latencies)
	StageApply    = "apply"     // batched world-state apply
	StageAppend   = "append"    // ledger append + commit events
	StagePrepare  = "prepare"   // wall clock of the whole stateless prepare half
	StageFinalize = "finalize"  // wall clock of the whole serialized finalize half
	StageOverlap  = "overlap"   // prepare time hidden behind the previous finalize
)

// commitStages is the canonical stage order: every stage gets a registry
// histogram per channel at New, and CommitTimings reports in this order.
var commitStages = []string{
	StageDecode, StageEndorse, StagePrepare,
	StageDedup, StageSchedule, StageMerge, StageMVCC, StageMVCCWave,
	StageApply, StageAppend, StageFinalize, StageOverlap,
}

// StageSummary is the aggregate of one pipeline stage's latency
// observations, as reported by CommitTimings.
type StageSummary struct {
	Stage string
	Count int
	Total time.Duration
	Avg   time.Duration
	Max   time.Duration
}

// CommitTimings returns per-stage latency aggregates over every block this
// peer has committed — on all channels — in pipeline order, read from the
// same registry histograms the -metrics-addr endpoint serves. Every entry
// is wall clock of that stage alone; see CommitAggregate for totals that
// are safe to add up. Stages with no observations are omitted.
func (p *Peer) CommitTimings() []StageSummary {
	out := make([]StageSummary, 0, len(commitStages))
	for _, stage := range commitStages {
		var count int64
		var total, max time.Duration
		for _, id := range p.channelIDs {
			h := p.cm[id].stages[stage]
			count += h.Count()
			total += h.Sum()
			if m := h.Max(); m > max {
				max = m
			}
		}
		if count == 0 {
			continue
		}
		out = append(out, StageSummary{
			Stage: stage,
			Count: int(count),
			Total: total,
			Avg:   total / time.Duration(count),
			Max:   max,
		})
	}
	return out
}

// CommitAggregate is the double-counting-free rollup of CommitTimings.
type CommitAggregate struct {
	// Wall is the pipeline's true elapsed commit time: prepare + finalize
	// wall clock, minus the prepare time the async pipeline hid behind an
	// earlier block's finalize (the overlap pseudo-stage). Without it,
	// summing stage totals counts overlapped prepare work twice.
	Wall time.Duration
	// CPU approximates total busy time: the sum of every work stage's own
	// wall clock (decode, dedup, endorse, schedule, merge, mvcc, apply,
	// append). With internal concurrency — merge beside mvcc, parallel
	// wavefronts — CPU exceeds Wall; the ratio is the pipeline's effective
	// parallelism.
	CPU time.Duration
}

// aggregateCPUStages are the non-overlapping work stages whose totals sum
// to the CPU aggregate. The wrapper stages (prepare, finalize), the overlap
// pseudo-stage and the per-wave sub-timings (contained in mvcc) are
// excluded — each would double-count work another stage already reports.
var aggregateCPUStages = map[string]bool{
	StageDecode: true, StageDedup: true, StageEndorse: true,
	StageSchedule: true, StageMerge: true, StageMVCC: true,
	StageApply: true, StageAppend: true,
}

// CommitAggregate rolls CommitTimings up into wall-clock and CPU-time
// totals that are safe to compare: Wall is what a wall clock saw, CPU is
// what the stages worked.
func (p *Peer) CommitAggregate() CommitAggregate {
	var agg CommitAggregate
	for _, s := range p.CommitTimings() {
		switch {
		case s.Stage == StagePrepare || s.Stage == StageFinalize:
			agg.Wall += s.Total
		case s.Stage == StageOverlap:
			agg.Wall -= s.Total
		case aggregateCPUStages[s.Stage]:
			agg.CPU += s.Total
		}
	}
	if agg.Wall < 0 {
		agg.Wall = 0
	}
	return agg
}

// Scheduler counter names, as reported by SchedulerCounters. One sample of
// each per block that went through the dependency scheduler (more than one
// commit worker).
const (
	// CounterSchedBlocks counts dependency-scheduled blocks.
	CounterSchedBlocks = "sched_blocks"
	// CounterSchedTxs counts transactions entering the scheduler (still
	// undecided after dedup).
	CounterSchedTxs = "sched_txs"
	// CounterSchedGroups counts independent conflict groups (connected
	// components) across scheduled blocks.
	CounterSchedGroups = "sched_groups"
	// CounterSchedConflicted counts scheduled transactions that conflicted
	// with at least one other; divided by CounterSchedTxs it is the
	// observed conflict rate.
	CounterSchedConflicted = "sched_conflicted_txs"
	// CounterSchedEdges counts dependency edges.
	CounterSchedEdges = "sched_edges"
	// CounterSchedWaves counts MVCC wavefronts executed.
	CounterSchedWaves = "sched_mvcc_waves"
)

// schedCounters pairs every scheduler counter with the registry metric that
// holds it, in SchedulerCounters report order.
var schedCounters = []struct{ name, metric string }{
	{CounterSchedBlocks, obs.MetricSchedBlocks},
	{CounterSchedTxs, obs.MetricSchedTxs},
	{CounterSchedGroups, obs.MetricSchedGroups},
	{CounterSchedConflicted, obs.MetricSchedConflicted},
	{CounterSchedEdges, obs.MetricSchedEdges},
	{CounterSchedWaves, obs.MetricSchedWaves},
}

// SchedulerCounter is one named scheduler counter's value.
type SchedulerCounter struct {
	Name  string
	Value int64
}

// SchedulerCounters returns the dependency scheduler's cumulative conflict
// structure counters — group counts, conflict tallies, wavefront counts —
// across every scheduled block on all channels, read from the registry
// counters the -metrics-addr endpoint serves. All stay zero on a peer whose
// finalize runs serially.
func (p *Peer) SchedulerCounters() []SchedulerCounter {
	out := make([]SchedulerCounter, len(schedCounters))
	for i, c := range schedCounters {
		out[i] = SchedulerCounter{Name: c.name, Value: p.sched[c.name].Value()}
	}
	return out
}

// CommitBlock runs the commit pipeline on the peer's default channel — the
// single-channel convenience wrapper around CommitBlockOn.
func (p *Peer) CommitBlock(block *ledger.Block) (CommitResult, error) {
	return p.CommitBlockOn(p.channelIDs[0], block)
}

// CommitBlockOn runs the validation + commit phase on a block delivered
// for one channel as an explicit staged pipeline: decode, duplicate
// screening, endorsement-policy validation (parallel per transaction), the
// FabricCRDT merge for CRDT transactions (when enabled; parallel per
// key-group), MVCC validation for the rest, then an atomic state update
// and ledger append (paper §2.1 step 3, §5.1). Per-stage latencies are
// recorded for CommitTimings.
//
// The pipeline is split in two (DESIGN.md §7): PrepareBlockOn is the
// stateless half (decode + endorsement validation — it reads no world
// state, so an async deliver loop may prepare block N+1 while block N is
// still committing), and FinalizeBlockOn is the serialized half (dedup,
// merge, MVCC, apply, append) under the channel's commit mutex.
// CommitBlockOn composes the two back to back — the synchronous path, and
// the definition of correctness the async pipeline (CommitPipeline) must
// match byte-for-byte.
//
// Commits are serialized per channel (the channel runtime's commit mutex);
// distinct channels commit fully in parallel — they share no state, no
// lock and no block numbering.
func (p *Peer) CommitBlockOn(channelID string, block *ledger.Block) (CommitResult, error) {
	prep, err := p.PrepareBlockOn(channelID, block)
	if err != nil {
		return CommitResult{}, err
	}
	return p.FinalizeBlockOn(prep)
}

// PreparedBlock is the output of the stateless prepare stage: the decoded
// block copies plus the per-transaction endorsement verdicts, ready for
// FinalizeBlockOn. A prepared block is bound to the (peer, channel)
// runtime it was prepared on.
type PreparedBlock struct {
	rt           *channel.Runtime
	stored, view *ledger.Block
	// endorseCodes holds the signature/policy verdict of every
	// transaction that passed the stateless pre-screen (CodeNotValidated
	// = passed; statelessly screened transactions keep their screen
	// code, which finalize recomputes and never reads from here).
	// Finalize adopts these verdicts only for transactions its
	// authoritative dedup stage leaves undecided, preserving the
	// synchronous pipeline's code precedence.
	endorseCodes []ledger.ValidationCode
	// prepDur is the prepare stage's wall time, used by CommitPipeline's
	// overlap accounting.
	prepDur time.Duration
}

// PrepareBlockOn runs the stateless half of the commit pipeline on a block
// delivered for one channel: decode (serialize + re-parse) and
// endorsement-policy validation of every transaction. Neither touches the
// channel's world state, chain, or duplicate-screening set, so prepare
// needs no commit mutex and may run for block N+1 while block N is still
// inside FinalizeBlockOn — the cross-block overlap the async delivery
// pipeline exploits (DESIGN.md §7).
//
// The block is serialized and re-parsed here: the committer works on the
// peer's own copy (a real peer receives bytes from the deliver service),
// and the pristine copy is what the hash-chained ledger stores — the merge
// engine's write-set rewriting never invalidates the orderer's data hash.
func (p *Peer) PrepareBlockOn(channelID string, block *ledger.Block) (*PreparedBlock, error) {
	//lint:ignore determinism prepare timing only; durations feed metrics, never committed state
	start := time.Now()
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	cm := p.cm[rt.ID()]
	var stored, view *ledger.Block
	cm.time(StageDecode, func() {
		stored, view, err = decodeBlock(block)
	})
	if err != nil {
		return nil, err
	}
	endorseCodes := make([]ledger.ValidationCode, len(view.Transactions))
	// A block already at or below the channel's committed height will be
	// fast-forwarded by finalize — don't re-validate its endorsements
	// here (re-delivered history must cost no validation work). The
	// unlocked height read is safe because height only grows: a block
	// this check sees as committed is still committed when finalize
	// re-checks under the commit mutex; the reverse race merely prepares
	// a block that finalize then fast-forwards, wasting nothing but work.
	if num := view.Header.Number; num == 0 || num > rt.Height() {
		cm.time(StageEndorse, func() {
			// The stateless pre-screen: transactions endorsed for a
			// different channel or duplicated within this block never
			// reach signature verification in the synchronous pipeline
			// either. Both checks are pure functions of the block, so
			// finalize's authoritative dedup stage recomputes the same
			// screens (and never reads endorseCodes for screened
			// transactions); only cross-history duplicates — invisible
			// without the dedup set — still cost a wasted verification.
			markWrongChannel(rt.ID(), view, endorseCodes)
			markInBlockDuplicates(view, endorseCodes)
			p.validateEndorsementsStage(rt, view, endorseCodes)
		})
	}
	prepDur := time.Since(start)
	cm.observe(StagePrepare, prepDur)
	return &PreparedBlock{
		rt:           rt,
		stored:       stored,
		view:         view,
		endorseCodes: endorseCodes,
		prepDur:      prepDur,
	}, nil
}

// FinalizeBlockOn runs the serialized half of the commit pipeline on a
// prepared block, under the channel's commit mutex: fast-forward check,
// duplicate screening (which must see every earlier block's committed IDs,
// so it cannot run ahead), the CRDT merge, MVCC validation, the atomic
// state apply and the ledger append. Prepared blocks of one channel must
// be finalized in delivery order — the hash chain rejects anything else.
//
// Dedup precedence matches the synchronous pipeline exactly: a
// wrong-channel or duplicate transaction keeps that code even if the
// prepare stage found its endorsements invalid, because the synchronous
// pipeline never endorse-validated screened transactions at all.
func (p *Peer) FinalizeBlockOn(prep *PreparedBlock) (CommitResult, error) {
	rt, stored, view := prep.rt, prep.stored, prep.view
	var err error

	rt.Lock()
	defer rt.Unlock()

	// A block at or below the state height was already committed — its
	// writes are in the (durable) world state. Fast-forward: record it
	// without re-validating or re-applying, so a restarted disk-backed
	// peer resumes from height+1 instead of replaying the chain.
	if num := view.Header.Number; num > 0 && num <= rt.Height() {
		return p.fastForward(rt, stored)
	}

	// Pre-flight the chain link before anything touches the state: the
	// append stage re-verifies at the end of the commit, but by then the
	// block's writes and its chain checkpoint would already be (durably)
	// applied — a chain-invalid block rejected only at append would
	// leave a restarted peer resuming from a checkpoint the true chain
	// never produced.
	if err := rt.Chain().CheckNext(stored); err != nil {
		return CommitResult{}, fmt.Errorf("peer %s: committing block %d on %s: %w", p.cfg.Name, view.Header.Number, rt.ID(), err)
	}

	//lint:ignore determinism finalize timing only; durations feed metrics, never committed state
	finStart := time.Now()
	cm := p.cm[rt.ID()]
	codes := make([]ledger.ValidationCode, len(view.Transactions))
	cm.time(StageDedup, func() {
		markWrongChannel(rt.ID(), view, codes)
		p.markDuplicates(rt, view, codes)
		// Adopt the prepared endorsement verdicts for every transaction
		// the screening left undecided.
		for i := range codes {
			if codes[i] == ledger.CodeNotValidated {
				codes[i] = prep.endorseCodes[i]
			}
		}
	})

	// Validation: the CRDT merge path (Algorithm 1) and MVCC decide the
	// block's remaining transactions — serially in delivery order, or, with
	// more than one commit worker, dependency-scheduled over them
	// (DESIGN.md §9). Both orderings produce byte-identical codes, write
	// sets and documents.
	var mergeRes core.Result
	if p.workers > 1 {
		mergeRes, err = p.validateScheduled(rt, view, codes)
	} else {
		mergeRes, err = p.validateSerial(rt, view, codes)
	}
	if err != nil {
		return CommitResult{}, fmt.Errorf("peer %s: merging block %d on %s: %w", p.cfg.Name, view.Header.Number, rt.ID(), err)
	}

	// Atomic commit: the pristine block body (now carrying its validation
	// codes) goes to the chain — the channel's one block log — FIRST, then
	// the state writes + CRDT document states + the chain checkpoint a
	// restarted peer resumes from. The order is the recovery invariant: the
	// block log is never behind the durable state, so a crash between the
	// two leaves a log-ahead gap the next open replays (DESIGN.md §8) — the
	// reverse order could checkpoint state whose block body is lost
	// forever.
	cm.time(StageApply, func() {
		stored.Metadata.ValidationCodes = codes
		if err = rt.Chain().Append(stored); err != nil {
			return
		}
		var batch *statedb.UpdateBatch
		if batch, err = rt.StageCommit(view, stored, mergeRes, codes); err != nil {
			return
		}
		rt.DB().Apply(batch, rwset.Version{BlockNum: view.Header.Number})
	})
	if err != nil {
		return CommitResult{}, fmt.Errorf("peer %s: committing block %d on %s: %w", p.cfg.Name, view.Header.Number, rt.ID(), err)
	}

	committed := 0
	cm.time(StageAppend, func() {
		tracing := obs.TracingEnabled()
		for i, tx := range view.Transactions {
			if codes[i].Committed() {
				committed++
				cm.txOK.Inc()
			} else {
				cm.txRejected.Inc()
			}
			if tracing && tx.TraceID != "" {
				// The commit span starts at finalize entry, so within this
				// process it nests inside any span that observed the whole
				// submit→commit round trip (e.g. gateway.submit).
				obs.Trace(tx.TraceID, "peer.commit", finStart,
					"peer", p.cfg.Name, "channel", rt.ID(), "txID", tx.ID,
					"block", strconv.FormatUint(view.Header.Number, 10),
					"code", codes[i].String())
			}
		}
		p.waiters[rt.ID()].resolve(rt.ID(), view.Header.Number, view.Transactions, codes)
	})
	cm.blocks.Inc()
	cm.observe(StageFinalize, time.Since(finStart))
	return CommitResult{
		ChannelID:   rt.ID(),
		BlockNum:    view.Header.Number,
		Codes:       codes,
		MergedKeys:  mergeRes.MergedKeys,
		CommittedTx: committed,
	}, nil
}

// validateSerial is the finalize validation of a peer with one commit
// worker: the CRDT merge decides every candidate first, then MVCC walks the
// rest in delivery order — the committer's definition of correctness, which
// the scheduled path must match byte for byte.
func (p *Peer) validateSerial(rt *channel.Runtime, view *ledger.Block, codes []ledger.ValidationCode) (core.Result, error) {
	cm := p.cm[rt.ID()]
	var mergeRes core.Result
	var err error
	if p.cfg.EnableCRDT {
		cm.time(StageMerge, func() {
			mergeRes, err = rt.Engine().MergeBlock(view, codes)
		})
		if err != nil {
			return core.Result{}, err
		}
	}
	cm.time(StageMVCC, func() {
		rt.Validator().ValidateBlock(view.Header.Number, view.Transactions, codes)
	})
	return mergeRes, nil
}

// validateScheduled is the dependency-scheduled finalize validation (more
// than one commit worker). The txgraph plan splits the undecided transactions
// into the merge-path candidates and the MVCC wavefronts; the two families
// are independent by construction — in the serial path the merge decides
// every candidate BEFORE ValidateBlock runs, so no candidate's write ever
// enters MVCC's pending-version accounting — which lets the merge engine
// and the wavefront validator run concurrently over disjoint codes slots
// and disjoint transaction footprints. Within every chain, block-delivery
// order is preserved (per-key merge order in the engine, wave order in the
// validator), so codes, rewritten write sets and document bytes are
// byte-identical to validateSerial at any worker count (DESIGN.md §9).
func (p *Peer) validateScheduled(rt *channel.Runtime, view *ledger.Block, codes []ledger.ValidationCode) (core.Result, error) {
	cm := p.cm[rt.ID()]
	var plan *txgraph.Plan
	cm.time(StageSchedule, func() {
		plan = txgraph.Build(view.Transactions, codes, p.cfg.EnableCRDT)
	})
	st := plan.Stats
	p.sched[CounterSchedBlocks].Inc()
	p.sched[CounterSchedTxs].Add(int64(st.Scheduled))
	p.sched[CounterSchedGroups].Add(int64(st.Groups))
	p.sched[CounterSchedConflicted].Add(int64(st.Conflicted))
	p.sched[CounterSchedEdges].Add(int64(st.Edges))
	p.sched[CounterSchedWaves].Add(int64(st.Waves))

	// The merge branch runs beside the MVCC branch: MergeCandidates touches
	// codes only at candidate indices, the wavefront validator only at
	// plain indices, and neither reads the other's slots.
	var mergeRes core.Result
	var mergeErr error
	mergeDone := make(chan struct{})
	if len(plan.CRDTTxs) > 0 {
		go func() {
			defer close(mergeDone)
			cm.time(StageMerge, func() {
				mergeRes, mergeErr = rt.Engine().MergeCandidates(view, codes, plan.CRDTTxs, p.workers)
			})
		}()
	} else {
		close(mergeDone)
	}
	cm.time(StageMVCC, func() {
		rt.Validator().ValidateScheduled(view.Header.Number, view.Transactions, codes, plan.MVCCWaves, p.workers,
			func(_ int, d time.Duration) { cm.observe(StageMVCCWave, d) })
	})
	<-mergeDone
	if mergeErr != nil {
		return core.Result{}, mergeErr
	}
	return mergeRes, nil
}

// fastForward records an already-committed block (state height at or above
// its number) without re-running validation or touching the state. The
// block's metadata codes are kept as delivered — a block re-delivered by
// the orderer carries none; the authoritative codes live with peers that
// validated it and in the durable state itself. No commit waiter is
// resolved: the block committed before this peer restarted, so no
// submission here waits on it.
//
// A re-delivered block is never accepted unverified: the chain's block log
// holds every committed block (it is appended before the state), and the
// copy must match it header-for-header, so a forged "old" block cannot
// masquerade as committed history.
func (p *Peer) fastForward(rt *channel.Runtime, stored *ledger.Block) (CommitResult, error) {
	num := stored.Header.Number
	local, err := rt.Chain().Get(num)
	if err != nil {
		return CommitResult{}, fmt.Errorf("peer %s: fast-forwarding block %d on %s: %w", p.cfg.Name, num, rt.ID(), err)
	}
	if !bytes.Equal(local.HeaderHash(), stored.HeaderHash()) {
		return CommitResult{}, fmt.Errorf("peer %s: re-delivered block %d on %s does not match the committed block", p.cfg.Name, num, rt.ID())
	}
	return CommitResult{
		ChannelID:     rt.ID(),
		BlockNum:      num,
		Codes:         stored.Metadata.ValidationCodes,
		FastForwarded: true,
	}, nil
}

// decodeBlock serializes and re-parses the delivered block into the
// pristine copy the ledger stores and the working view the committer
// mutates.
func decodeBlock(block *ledger.Block) (stored, view *ledger.Block, err error) {
	raw, err := block.Marshal()
	if err != nil {
		return nil, nil, err
	}
	stored, err = ledger.UnmarshalBlock(raw)
	if err != nil {
		return nil, nil, err
	}
	view, err = ledger.UnmarshalBlock(raw)
	if err != nil {
		return nil, nil, err
	}
	return stored, view, nil
}

// markWrongChannel fails transactions endorsed for a different channel
// than the one this block is being committed on. Endorsement signatures
// cover the transaction's own ChannelID, so a valid envelope for ch1
// replayed into ch2's block stream would otherwise pass every later check
// (duplicate screening is deliberately channel-local, and MVCC would
// validate its reads against the wrong channel's versions). An empty
// ChannelID is also rejected: every endorsed envelope names its channel.
func markWrongChannel(channelID string, view *ledger.Block, codes []ledger.ValidationCode) {
	for i, tx := range view.Transactions {
		if codes[i] == ledger.CodeNotValidated && tx.ChannelID != channelID {
			codes[i] = ledger.CodeWrongChannel
		}
	}
}

// markDuplicates fails transactions whose ID was already committed on this
// channel or appeared earlier in the same block (the paper's system model
// relies on peers to identify duplicates; first occurrence wins). The
// channel's seen-transaction markers, written with every commit, are
// consulted, so screening covers history committed before a restart.
// Screening is channel-local: the same ID on another channel is a
// different transaction (Fabric's ledgers are independent per channel).
func (p *Peer) markDuplicates(rt *channel.Runtime, view *ledger.Block, codes []ledger.ValidationCode) {
	for i, tx := range view.Transactions {
		// Only still-undecided transactions: a WRONG_CHANNEL rejection
		// must not be relabeled as a dedup hit.
		if codes[i] == ledger.CodeNotValidated && rt.WasCommitted(tx.ID) {
			codes[i] = ledger.CodeDuplicate
		}
	}
	markInBlockDuplicates(view, codes)
}

// markInBlockDuplicates fails repeats of a transaction ID within the same
// block (first occurrence wins). Unlike the cross-history half of the
// screening it is a pure function of the block, so the prepare stage also
// runs it to skip endorsement validation of in-block repeats.
func markInBlockDuplicates(view *ledger.Block, codes []ledger.ValidationCode) {
	seenInBlock := make(map[string]int, len(view.Transactions))
	for i, tx := range view.Transactions {
		if codes[i] != ledger.CodeNotValidated {
			continue
		}
		if _, dup := seenInBlock[tx.ID]; dup {
			codes[i] = ledger.CodeDuplicate
			continue
		}
		seenInBlock[tx.ID] = i
	}
}

// validateEndorsementsStage checks signatures and endorsement policies of
// every still-undecided transaction. Transactions are independent here
// (each check touches only codes[i]), so the stage fans out over the
// channel's commit workers — the parallelization Fabric itself applies to
// this, the most CPU-bound, stage.
func (p *Peer) validateEndorsementsStage(rt *channel.Runtime, view *ledger.Block, codes []ledger.ValidationCode) {
	var pending []int
	for i := range view.Transactions {
		if codes[i] == ledger.CodeNotValidated {
			pending = append(pending, i)
		}
	}
	parallel.ForEach(p.workers, pending, func(i int) {
		// Distinct items write distinct codes[i]: race-free.
		codes[i] = p.validateEndorsements(rt, view.Transactions[i])
	})
}
