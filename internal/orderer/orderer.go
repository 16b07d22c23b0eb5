// Package orderer implements the ordering service: a total-order broadcast
// (standing in for the paper's Kafka/ZooKeeper deployment) plus Fabric's
// block cutter, which batches the ordered transaction stream into blocks by
// message count, byte size and timeout (paper §3: "the ordering service
// creates a block based on several criteria, including the maximum number
// of transactions, the maximum total size … and a timeout period").
//
// A service normally chains blocks after the channel genesis block
// (NewService); one resuming from a durable block log or from durable peer
// state instead chains after the recorded tip (NewServiceAt), continuing
// the committed block numbering rather than restarting at 1. Either way the service
// appends each cut block to the channel's block log (BlockLog), which is
// the only fan-out: peers read it through their own cursors.
package orderer

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
)

// Config mirrors Fabric's BatchSize/BatchTimeout orderer configuration.
type Config struct {
	// MaxMessageCount cuts a block when this many transactions are
	// pending (the paper's block-size sweep varies 25…1000).
	MaxMessageCount int
	// AbsoluteMaxBytes is the hard byte ceiling per block; a transaction
	// larger than it is rejected.
	AbsoluteMaxBytes int
	// PreferredMaxBytes cuts a block early when pending bytes reach it.
	PreferredMaxBytes int
	// BatchTimeout cuts whatever is pending after this long (paper: 2s).
	BatchTimeout time.Duration
}

// DefaultConfig matches the paper's fixed orderer settings (Table 1):
// 128 MB preferred/absolute bytes, 2 s timeout.
func DefaultConfig(maxMessages int) Config {
	return Config{
		MaxMessageCount:   maxMessages,
		AbsoluteMaxBytes:  128 * 1024 * 1024,
		PreferredMaxBytes: 128 * 1024 * 1024,
		BatchTimeout:      2 * time.Second,
	}
}

// normalized fills zero fields with safe defaults.
func (c Config) normalized() Config {
	if c.MaxMessageCount <= 0 {
		c.MaxMessageCount = 500
	}
	if c.AbsoluteMaxBytes <= 0 {
		c.AbsoluteMaxBytes = 128 * 1024 * 1024
	}
	if c.PreferredMaxBytes <= 0 {
		c.PreferredMaxBytes = c.AbsoluteMaxBytes
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Second
	}
	return c
}

// CutReason records why a batch was cut.
type CutReason string

// Batch cut reasons.
const (
	CutMaxMessages    CutReason = "max-message-count"
	CutPreferredBytes CutReason = "preferred-max-bytes"
	CutOversizedTx    CutReason = "oversized-transaction"
	CutTimeout        CutReason = "batch-timeout"
	CutFlush          CutReason = "flush"
)

// Batch is a cut group of transactions with its cut reason.
type Batch struct {
	Transactions []*ledger.Transaction
	Reason       CutReason
}

// ErrOversized reports a transaction exceeding AbsoluteMaxBytes.
var ErrOversized = errors.New("orderer: transaction exceeds AbsoluteMaxBytes")

// Cutter is the pure block-cutting state machine, shared by the live
// ordering service and the benchmark's orderer-cut row. It is not safe for
// concurrent use; callers serialize (that serialization IS the total order).
type Cutter struct {
	cfg          Config
	pending      []*ledger.Transaction
	pendingBytes int
}

// NewCutter returns a cutter with the given configuration.
func NewCutter(cfg Config) *Cutter {
	return &Cutter{cfg: cfg.normalized()}
}

// Pending returns the number of queued transactions.
func (c *Cutter) Pending() int { return len(c.pending) }

// Ordered accepts the next transaction in total order and returns the
// batches it completes (zero, one, or — when an oversized-but-legal
// transaction forces the pending batch out first — two).
func (c *Cutter) Ordered(tx *ledger.Transaction) ([]Batch, error) {
	size := tx.Size()
	if size > c.cfg.AbsoluteMaxBytes {
		return nil, ErrOversized
	}
	var batches []Batch
	// A transaction that alone exceeds PreferredMaxBytes is cut into its
	// own batch, flushing anything pending first (Fabric semantics).
	if size > c.cfg.PreferredMaxBytes {
		if len(c.pending) > 0 {
			batches = append(batches, c.cut(CutPreferredBytes))
		}
		c.pending = append(c.pending, tx)
		c.pendingBytes += size
		batches = append(batches, c.cut(CutOversizedTx))
		return batches, nil
	}
	if c.pendingBytes+size > c.cfg.PreferredMaxBytes && len(c.pending) > 0 {
		batches = append(batches, c.cut(CutPreferredBytes))
	}
	c.pending = append(c.pending, tx)
	c.pendingBytes += size
	if len(c.pending) >= c.cfg.MaxMessageCount {
		batches = append(batches, c.cut(CutMaxMessages))
	}
	return batches, nil
}

// Cut flushes the pending transactions (timeout or shutdown path); it
// returns a zero-length batch when nothing is pending.
func (c *Cutter) Cut(reason CutReason) Batch {
	if len(c.pending) == 0 {
		return Batch{Reason: reason}
	}
	return c.cut(reason)
}

func (c *Cutter) cut(reason CutReason) Batch {
	b := Batch{Transactions: c.pending, Reason: reason}
	c.pending = nil
	c.pendingBytes = 0
	return b
}

// Assembler turns cut batches into hash-chained blocks. It must observe
// batches in total order.
type Assembler struct {
	nextNumber uint64
	prevHash   []byte
}

// NewAssembler returns an assembler chaining onto the given block (usually
// the channel's genesis block).
func NewAssembler(after *ledger.Block) *Assembler {
	return NewAssemblerAt(after.Header.Number, after.HeaderHash())
}

// NewAssemblerAt returns an assembler chaining onto the block identified
// by (number, header hash) — the resume path when the ordering service is
// rebuilt over peers restored from a durable state checkpoint, where the
// block body itself is no longer available.
func NewAssemblerAt(afterNumber uint64, afterHash []byte) *Assembler {
	return &Assembler{
		nextNumber: afterNumber + 1,
		prevHash:   afterHash,
	}
}

// Assemble builds the next block from a batch. When any batched
// transaction carries a trace ID, the block metadata records the full
// per-transaction ID column (empty strings for untraced slots) so the
// trace survives re-serialization on the wire — metadata is not covered
// by the data hash, and the IDs were already inside it anyway via the
// transaction bodies.
func (a *Assembler) Assemble(batch Batch) (*ledger.Block, error) {
	dataHash, err := ledger.ComputeDataHash(batch.Transactions)
	if err != nil {
		return nil, err
	}
	var traceIDs []string
	for i, tx := range batch.Transactions {
		if tx.TraceID == "" {
			continue
		}
		if traceIDs == nil {
			traceIDs = make([]string, len(batch.Transactions))
		}
		traceIDs[i] = tx.TraceID
	}
	b := &ledger.Block{
		Header: ledger.BlockHeader{
			Number:   a.nextNumber,
			PrevHash: a.prevHash,
			DataHash: dataHash,
		},
		Transactions: batch.Transactions,
		Metadata: ledger.BlockMetadata{
			ValidationCodes: make([]ledger.ValidationCode, len(batch.Transactions)),
			CutReason:       string(batch.Reason),
			TraceIDs:        traceIDs,
		},
	}
	a.nextNumber++
	a.prevHash = b.HeaderHash()
	return b, nil
}

// BlockLog is where a Service writes the blocks it cuts: the channel's
// block log, which is also its only fan-out (*transport.History satisfies
// it; every Deliver stream is a cursor into it). Append must not wait on a
// reader: the service calls it under its mutex, so blocks reach the log in
// the order they were cut.
type BlockLog interface {
	// Append publishes the next block in sequence.
	Append(*ledger.Block) error
	// Close ends the log: readers drain what was appended, then see EOF.
	Close()
}

// Service is the live ordering service: Broadcast serializes submissions
// into a total order, the cutter batches them, and each completed block is
// appended to the channel's block log.
//
// The service never blocks under its mutex: emit appends to the log, and
// the log's Append never waits on a reader (a slow or stuck consumer lags
// behind on its own cursor). Broadcast, Flush and Stop therefore stay
// responsive whatever the consumers do.
type Service struct {
	cfg Config
	out BlockLog

	mu        sync.Mutex
	cutter    *Cutter
	assembler *Assembler
	timer     *time.Timer
	stopped   bool
	label     string
	// tracedAt remembers when each traced transaction entered Broadcast so
	// emit can record an orderer.order span spanning queueing + batching.
	// Entries are deleted on emit and swept on Stop; the map only ever
	// holds transactions whose batch has not been cut yet.
	tracedAt map[string]time.Time
}

// NewService returns a started ordering service chaining blocks after
// genesis and appending them to out.
func NewService(cfg Config, genesis *ledger.Block, out BlockLog) *Service {
	return NewServiceAt(cfg, genesis.Header.Number, genesis.HeaderHash(), out)
}

// NewServiceAt returns a started ordering service chaining blocks after
// the block identified by (number, header hash) and appending them to out
// — used when a network resumes from durable peer state and new blocks
// must continue the recorded chain rather than restart at 1. out must
// expect afterNumber+1 as its next block.
func NewServiceAt(cfg Config, afterNumber uint64, afterHash []byte, out BlockLog) *Service {
	return &Service{
		cfg:       cfg.normalized(),
		out:       out,
		cutter:    NewCutter(cfg),
		assembler: NewAssemblerAt(afterNumber, afterHash),
	}
}

// ErrStopped reports a broadcast to a stopped service.
var ErrStopped = errors.New("orderer: service stopped")

// SetLabel names the service (normally its channel ID) in trace spans.
// Call before serving traffic.
func (s *Service) SetLabel(label string) {
	s.mu.Lock()
	s.label = label
	s.mu.Unlock()
}

// Broadcast submits a transaction for ordering. The mutex acquisition order
// is the total order (the Kafka stand-in).
func (s *Service) Broadcast(tx *ledger.Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	if tx.TraceID != "" && obs.TracingEnabled() {
		if s.tracedAt == nil {
			s.tracedAt = make(map[string]time.Time)
		}
		s.tracedAt[tx.TraceID] = time.Now()
	}
	batches, err := s.cutter.Ordered(tx)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := s.emit(b); err != nil {
			return err
		}
	}
	s.armTimerLocked()
	return nil
}

// armTimerLocked starts the batch timeout when transactions are pending and
// no timer runs, and clears it when the cutter is empty.
func (s *Service) armTimerLocked() {
	if s.cutter.Pending() == 0 {
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
		return
	}
	if s.timer != nil {
		return
	}
	s.timer = time.AfterFunc(s.cfg.BatchTimeout, s.onTimeout)
}

func (s *Service) onTimeout() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timer = nil
	if s.stopped || s.cutter.Pending() == 0 {
		return
	}
	batch := s.cutter.Cut(CutTimeout)
	_ = s.emit(batch)
	s.armTimerLocked()
}

// emit assembles a batch and appends the block to the log (mu held).
// Append never waits on a reader, so emit cannot block on a stuck
// consumer. (An earlier implementation sent into bounded subscriber
// channels right here; one abandoned subscriber filling its buffer then
// wedged Broadcast, Flush and Stop behind the mutex.)
func (s *Service) emit(batch Batch) error {
	if len(batch.Transactions) == 0 {
		return nil
	}
	block, err := s.assembler.Assemble(batch)
	if err != nil {
		return err
	}
	if len(s.tracedAt) > 0 {
		num := strconv.FormatUint(block.Header.Number, 10)
		for _, tx := range block.Transactions {
			start, ok := s.tracedAt[tx.TraceID]
			if !ok {
				continue
			}
			delete(s.tracedAt, tx.TraceID)
			obs.Trace(tx.TraceID, "orderer.order", start,
				"channel", s.label, "txID", tx.ID,
				"block", num, "reason", string(batch.Reason))
		}
	}
	return s.out.Append(block)
}

// Flush cuts and delivers any pending transactions immediately.
func (s *Service) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.cutter.Pending() == 0 {
		return
	}
	_ = s.emit(s.cutter.Cut(CutFlush))
	s.armTimerLocked()
}

// Stop flushes pending transactions, closes the block log and rejects
// further broadcasts. Readers of the log receive every block, the final
// flush included, and then EOF; Stop never waits on them.
func (s *Service) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	if s.cutter.Pending() > 0 {
		_ = s.emit(s.cutter.Cut(CutFlush))
	}
	s.stopped = true
	s.tracedAt = nil
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.out.Close()
}
