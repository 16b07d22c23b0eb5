// Package simnet reproduces the paper's experimental pipeline under virtual
// time: clients submitting at a configured rate, endorsement against the
// committed state, block cutting by size and timeout, and a single-server
// commit queue — all driving the REAL chaincode-simulation, merge-engine and
// MVCC-validation code. CPU measured in the commit path is scaled into
// virtual time, and network/storage hops are charged from a calibrated
// latency model, so the figures' shapes (MVCC failure arithmetic, merge-cost
// growth, queueing saturation) emerge from the actual implementation rather
// than from closed-form formulas (DESIGN.md S18, §3).
package simnet

import (
	"fmt"
	"strconv"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/des"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/mvcc"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
	"fabriccrdt/internal/workload"
)

// Mode selects the system under test.
type Mode int

const (
	// ModeFabric is stock Fabric: CRDT flags dropped, MVCC for everyone.
	ModeFabric Mode = iota + 1
	// ModeFabricCRDT enables the merge engine.
	ModeFabricCRDT
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFabric:
		return "Fabric"
	case ModeFabricCRDT:
		return "FabricCRDT"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// LatencyModel carries the calibrated constants standing in for the paper's
// cluster (CouchDB, Kafka, Kubernetes networking). DESIGN.md S18 justifies
// them; `fabriccrdt-bench -compare` prints the paper's numbers beside the
// ones they reproduce.
type LatencyModel struct {
	// Endorse is the client→endorser→client round trip including proposal
	// signing and simulation scheduling.
	Endorse time.Duration
	// Ordering is broadcast→block-inclusion→delivery overhead, excluding
	// batching wait (which the cutter/timeout model produces).
	Ordering time.Duration
	// CommitPerBlock is the fixed per-block commit overhead.
	CommitPerBlock time.Duration
	// CommitPerTx covers per-transaction validation work outside the
	// measured code: endorsement signature checks, (de)serialization.
	CommitPerTx time.Duration
	// StateReadPerKey is the CouchDB version-lookup cost per read-set key
	// during MVCC validation.
	StateReadPerKey time.Duration
	// StateWritePerKey is the CouchDB write cost per committed key.
	StateWritePerKey time.Duration
	// CPUScale multiplies CPU time measured in the real merge/validation
	// code into virtual time (their Kubernetes VMs and rdoc-based merge
	// versus this repo's native Go on bare hardware).
	CPUScale float64
}

// DefaultLatencyModel returns the calibration `fabriccrdt-bench` runs with:
// constants anchored so that the paper's two block-size extremes (≈267 tx/s
// at 25 txs/block, ≈20 tx/s at 1000) reproduce, with everything in between
// emerging from the merge CPU measured under core.Options.PaperLiteral.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		Endorse:          10 * time.Millisecond,
		Ordering:         50 * time.Millisecond,
		CommitPerBlock:   20 * time.Millisecond,
		CommitPerTx:      500 * time.Microsecond,
		StateReadPerKey:  400 * time.Microsecond,
		StateWritePerKey: time.Millisecond,
		CPUScale:         65,
	}
}

// Config is one simulation run.
type Config struct {
	Mode Mode
	// BlockSize is the orderer's MaxMessageCount.
	BlockSize int
	// BatchTimeout is the orderer's block timeout (paper: 2 s).
	BatchTimeout time.Duration
	// Rate is the aggregate client submission rate in tx/s (paper: 300,
	// from 4 Caliper clients).
	Rate float64
	// TotalTx is the number of transactions submitted (paper: 10,000).
	TotalTx int
	// Workload parameterizes the IoT generator.
	Workload workload.IoTParams
	// Latency is the calibrated constant model; zero value uses defaults.
	Latency *LatencyModel
	// Engine tunes the merge engine; the paper's figures are reproduced
	// with PaperLiteral set.
	Engine core.Options
}

func (c Config) normalized() (Config, error) {
	if c.Mode != ModeFabric && c.Mode != ModeFabricCRDT {
		return c, fmt.Errorf("simnet: invalid mode %d", int(c.Mode))
	}
	if c.BlockSize <= 0 {
		return c, fmt.Errorf("simnet: block size %d", c.BlockSize)
	}
	if c.Rate <= 0 {
		return c, fmt.Errorf("simnet: rate %f", c.Rate)
	}
	if c.TotalTx <= 0 {
		return c, fmt.Errorf("simnet: total tx %d", c.TotalTx)
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Second
	}
	if c.Latency == nil {
		m := DefaultLatencyModel()
		c.Latency = &m
	}
	return c, nil
}

// Result is a run's metrics summary plus the real CPU it took to produce.
type Result struct {
	Summary
	// Wall is the real time the simulation took.
	Wall time.Duration
	// MergedKeys is the number of distinct keys ever merged (CRDT mode).
	MergedKeys int
}

// runner holds one simulation's state.
type runner struct {
	cfg Config
	lm  LatencyModel
	sim *des.Sim

	gen   *workload.IoTGenerator
	cc    chaincode.Chaincode
	db    *statedb.DB
	val   *mvcc.Validator
	eng   *core.Engine
	cut   *orderer.Cutter
	asm   *orderer.Assembler
	stats *Collector

	// submitTimes maps tx ID to virtual submission time.
	submitTimes map[string]time.Duration

	// committer single-server queue.
	queue []*ledger.Block
	busy  bool

	// timeout management: epoch invalidates timers armed before the last
	// cut; timerArmed dedupes arming (Fabric starts the batch timer when
	// the first transaction enters an empty batch and cancels it on cut —
	// it does NOT restart per transaction).
	epoch      int64
	timerArmed bool

	mergedKeys map[string]struct{}
	err        error
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.run()
}

// newRunner builds a simulation over a fresh state database holding the
// populated hot keys.
func newRunner(cfg Config) (*runner, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	db := statedb.New()
	gen := workload.NewIoT(cfg.Workload)
	r := &runner{
		cfg:         cfg,
		lm:          *cfg.Latency,
		sim:         &des.Sim{},
		gen:         gen,
		cc:          gen.Chaincode(),
		db:          db,
		val:         mvcc.New(db),
		eng:         core.NewEngine(db, cfg.Engine),
		cut:         orderer.NewCutter(orderer.Config{MaxMessageCount: cfg.BlockSize, BatchTimeout: cfg.BatchTimeout}),
		stats:       &Collector{},
		submitTimes: make(map[string]time.Duration, cfg.TotalTx),
		mergedKeys:  make(map[string]struct{}),
	}
	r.asm = orderer.NewAssembler(ledger.Genesis("sim"))
	r.populate()
	return r, nil
}

// run submits the workload, runs the simulation to its end and summarizes
// it.
func (r *runner) run() (Result, error) {
	start := time.Now()
	// Schedule all submissions: TotalTx transactions at the aggregate
	// rate, evenly spaced (the paper's Caliper clients submit at a fixed
	// send rate).
	interTx := time.Duration(float64(time.Second) / r.cfg.Rate)
	for i := 0; i < r.cfg.TotalTx; i++ {
		idx := i
		r.sim.ScheduleAt(time.Duration(idx)*interTx, func() { r.submit(idx) })
	}
	r.sim.Run()
	if r.err != nil {
		return Result{}, r.err
	}
	res := Result{
		Summary:    r.stats.Summarize(),
		Wall:       time.Since(start),
		MergedKeys: len(r.mergedKeys),
	}
	return res, nil
}

// populate seeds the hot keys (paper §7.2) at version (0, j).
func (r *runner) populate() {
	batch := statedb.NewUpdateBatch()
	for j, key := range r.gen.HotKeys() {
		batch.Put(key, workload.InitialValue(), rwset.Version{BlockNum: 0, TxNum: uint64(j + 1)})
	}
	r.db.Apply(batch, rwset.Version{BlockNum: 0})
}

// fail aborts the simulation at the current event.
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// submit is the client-side submission event: simulate (endorse) against
// the current committed state, then forward to the orderer.
func (r *runner) submit(i int) {
	if r.err != nil {
		return
	}
	now := r.sim.Now()
	r.stats.Submitted(now)
	txID := "tx-" + strconv.Itoa(i)
	stub := chaincode.NewSimStub(txID, workload.SpecArgs(i), r.db)
	if err := r.cc.Invoke(stub); err != nil {
		r.fail(fmt.Errorf("simnet: chaincode for tx %d: %w", i, err))
		return
	}
	rw := stub.Result()
	if r.cfg.Mode == ModeFabric {
		for wi := range rw.Writes {
			rw.Writes[wi].IsCRDT = false
			rw.Writes[wi].CRDTType = ""
		}
	}
	tx := &ledger.Transaction{
		ID:             txID,
		ChannelID:      "sim",
		Chaincode:      "iot",
		Args:           workload.SpecArgs(i),
		RWSet:          rw,
		SubmitUnixNano: int64(now),
	}
	r.submitTimes[txID] = now
	r.sim.Schedule(r.lm.Endorse, func() { r.ordered(tx) })
}

// ordered is the orderer-side arrival event.
func (r *runner) ordered(tx *ledger.Transaction) {
	if r.err != nil {
		return
	}
	batches, err := r.cut.Ordered(tx)
	if err != nil {
		r.fail(fmt.Errorf("simnet: ordering %s: %w", tx.ID, err))
		return
	}
	if len(batches) > 0 {
		// A cut cancels the armed batch timer.
		r.epoch++
		r.timerArmed = false
		for _, b := range batches {
			r.emit(b)
		}
	}
	r.armTimeout()
}

// armTimeout schedules a batch-timeout cut when transactions are pending
// and no timer is outstanding. The epoch check drops timers invalidated by
// an intervening cut.
func (r *runner) armTimeout() {
	if r.cut.Pending() == 0 || r.timerArmed {
		return
	}
	r.timerArmed = true
	snapshot := r.epoch
	r.sim.Schedule(r.cfg.BatchTimeout, func() {
		if r.err != nil || snapshot != r.epoch {
			return // superseded by a cut; a newer timer may be armed
		}
		r.timerArmed = false
		if r.cut.Pending() == 0 {
			return
		}
		batch := r.cut.Cut(orderer.CutTimeout)
		r.epoch++
		r.emit(batch)
	})
}

// emit assembles a batch and schedules its delivery to the committer.
func (r *runner) emit(batch orderer.Batch) {
	if len(batch.Transactions) == 0 {
		return
	}
	block, err := r.asm.Assemble(batch)
	if err != nil {
		r.fail(fmt.Errorf("simnet: assembling block: %w", err))
		return
	}
	r.sim.Schedule(r.lm.Ordering, func() { r.delivered(block) })
}

// delivered enqueues the block at the committer.
func (r *runner) delivered(block *ledger.Block) {
	if r.err != nil {
		return
	}
	r.queue = append(r.queue, block)
	if !r.busy {
		r.startNext()
	}
}

// startNext begins committing the next queued block: the real validation
// and merge code runs NOW (so it reads the state as of commit start), its
// measured CPU plus the modeled constants become the virtual commit
// duration, and the state mutation lands at commit finish.
func (r *runner) startNext() {
	if len(r.queue) == 0 {
		r.busy = false
		return
	}
	r.busy = true
	block := r.queue[0]
	r.queue = r.queue[1:]

	t0 := time.Now()
	txs := block.Transactions
	codes := make([]ledger.ValidationCode, len(txs))
	var mergeRes core.Result
	if r.cfg.Mode == ModeFabricCRDT {
		var err error
		mergeRes, err = r.eng.MergeBlock(block, codes)
		if err != nil {
			r.fail(fmt.Errorf("simnet: merging block %d: %w", block.Header.Number, err))
			return
		}
	}
	r.val.ValidateBlock(block.Header.Number, txs, codes)
	batch := mvcc.BuildCommitBatch(block.Header.Number, txs, codes)
	core.StageDocStates(batch, mergeRes)
	cpu := time.Since(t0)

	reads := 0
	for _, tx := range txs {
		reads += len(tx.RWSet.Reads)
	}
	writes := batch.Len()
	duration := r.lm.CommitPerBlock +
		time.Duration(len(txs))*r.lm.CommitPerTx +
		time.Duration(reads)*r.lm.StateReadPerKey +
		time.Duration(writes)*r.lm.StateWritePerKey +
		time.Duration(float64(cpu)*r.lm.CPUScale)

	for _, k := range mergeRes.MergedKeys {
		r.mergedKeys[k] = struct{}{}
	}
	r.sim.Schedule(duration, func() { r.finish(block, codes, batch) })
}

// finish applies the block's state updates and records metrics.
func (r *runner) finish(block *ledger.Block, codes []ledger.ValidationCode, batch *statedb.UpdateBatch) {
	now := r.sim.Now()
	r.db.Apply(batch, rwset.Version{BlockNum: block.Header.Number})
	r.stats.BlockCommitted()
	for i, tx := range block.Transactions {
		submit, ok := r.submitTimes[tx.ID]
		if !ok {
			r.fail(fmt.Errorf("simnet: unknown tx %s in block %d", tx.ID, block.Header.Number))
			return
		}
		delete(r.submitTimes, tx.ID)
		r.stats.Committed(submit, now, codes[i])
	}
	r.startNext()
}
