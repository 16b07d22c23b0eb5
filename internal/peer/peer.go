// Package peer implements a Fabric peer: the endorser that simulates
// chaincode against the local world state during the execution phase, and
// the committer that validates delivered blocks and applies them to the
// ledger (paper §2.1). With CRDT support enabled the committer routes
// CRDT-flagged transactions through the FabricCRDT merge engine instead of
// MVCC validation (paper §5.1, Figure 2).
//
// A peer joins one or more channels (Config.Channels). Each channel gets
// its own commit runtime (internal/channel.Runtime): world state, hash
// chain, block numbering, duplicate screening, MVCC version space and
// crash-restart resume are all channel-private, so N channels commit fully
// in parallel — CommitBlockOn serializes commits per channel, never across
// channels. The single-channel API (CommitBlock, DB, Chain, Height,
// Genesis) operates on the peer's default channel, the first configured.
//
// Each channel's world state lives behind a configurable statedb backend
// (CommitterConfig.Backend): in-memory (single-lock or sharded) or one of
// the persistent backends (disk, lsm), stored under DataDir/<channel-ID>.
// A peer reopening a persistent backend's data directory restarts every
// channel at its own recorded block height — HeightOn reports it, and
// CommitBlockOn fast-forwards re-delivered blocks at or below it instead
// of re-validating them (DESIGN.md §4, §6).
//
// How parallel the committer runs is derived, never configured: every
// channel validates endorsements over max(1, GOMAXPROCS / channels)
// workers (commitWorkers), and deliver loops always run the async
// prepare/finalize pipeline (CommitPipeline). Finalize is one serial path
// per channel, as in Algorithm 1: merge the CRDT transactions, then stock
// MVCC over the rest in block order.
//
// Alongside the state store, a durable backend (disk, lsm) always keeps a
// durable block store (internal/blockstore): every committed block body is
// appended in the finalize stage just before the
// state apply, so the ledger — not the state snapshot — is the recovery
// root. A restarted peer serves its full history to syncing peers
// (SyncFrom) and can rebuild its world state from block 0 (RebuildState),
// reproducing the pre-restart state byte for byte (DESIGN.md §8).
//
// A submission learns its outcome from the peer that commits it: each
// channel keeps a waiter table keyed by transaction ID (AwaitCommit), and
// the finalize stage hands each committed transaction's CommitEvent to the
// waiters registered for it — a send into a one-slot buffer, so a waiter
// that never reads cannot stall a commit. AwaitHeightOn waits for whole
// blocks instead (DESIGN.md §5).
package peer

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// Proposal is a client's request to simulate a chaincode invocation.
type Proposal struct {
	TxID string
	// ChannelID routes the simulation to one of the peer's channels; empty
	// means the default channel.
	ChannelID string
	Chaincode string
	Args      [][]byte
	// Creator is the serialized identity of the submitting client.
	Creator []byte
	// TraceID carries the client's obs trace ID (empty when tracing is
	// off) so the endorsing hop records a span under the same trace.
	TraceID string
}

// ProposalResponse is one endorser's signed simulation result.
type ProposalResponse struct {
	// Endorser is the serialized identity of the endorsing peer.
	Endorser []byte
	// ChannelID echoes the channel the proposal resolved to — the ID the
	// signature covers and the assembled transaction must carry (a
	// default-channel proposal with an empty ChannelID learns the real
	// name here; committers reject transactions naming any other channel).
	ChannelID string
	// RWSet is the simulated read/write set.
	RWSet rwset.ReadWriteSet
	// Signature signs the would-be transaction's endorsement payload.
	Signature []byte
}

// CommitEvent is one transaction's commit outcome, handed to the waiters
// registered for it (AwaitCommit).
type CommitEvent struct {
	TxID string
	// ChannelID names the channel the transaction committed on.
	ChannelID string
	BlockNum  uint64
	Code      ledger.ValidationCode
}

// CommitResult summarizes one committed block.
type CommitResult struct {
	// ChannelID names the channel the block was committed on.
	ChannelID  string
	BlockNum   uint64
	Codes      []ledger.ValidationCode
	MergedKeys []string
	// CommittedTx counts transactions whose writes reached the state.
	CommittedTx int
	// FastForwarded reports that the block's writes were already in the
	// world state (a restarted peer re-receiving history it durably
	// committed), so validation, merge and state apply were skipped and
	// the block was only recorded in the chain.
	FastForwarded bool
}

// Config configures a peer.
type Config struct {
	Name  string
	MSPID string
	// Channels lists every channel the peer joins; the first is the
	// default channel the single-channel API binds to. Names must be
	// unique and non-empty; empty means [channel.DefaultChannel].
	Channels []string
	// EnableCRDT turns the peer into a FabricCRDT peer; disabled it
	// behaves exactly like stock Fabric (CRDT-flagged writes validate and
	// commit as ordinary writes).
	EnableCRDT bool
	// Committer selects every channel's world-state backend and its
	// durability.
	Committer CommitterConfig
}

// Peer errors.
var (
	ErrUnknownChaincode = errors.New("peer: chaincode not installed")
	ErrChaincodeFailed  = errors.New("peer: chaincode invocation failed")
	ErrBadCreator       = errors.New("peer: creator identity rejected")
	ErrUnknownChannel   = errors.New("peer: channel not joined")
)

// Peer is one peer node. Endorsement (Endorse) may run concurrently with
// commits; commits are serialized per channel by each channel runtime's
// commit mutex, mirroring Fabric's single commit pipeline per channel —
// distinct channels commit in parallel.
type Peer struct {
	cfg    Config
	signer *cryptoid.Signer
	msp    *cryptoid.MSP

	// channelIDs is the joined channel list in configuration order;
	// channelIDs[0] is the default channel. channels maps each ID to its
	// private commit runtime.
	channelIDs []string
	channels   map[string]*channel.Runtime

	// reg is the peer's metrics registry: per-(channel,stage) commit
	// histograms, block/transaction counters, height and store gauges —
	// everything the -metrics-addr endpoint serves for this peer, and the
	// single source CommitTimings reads from. Each peer owns its registry
	// so multi-peer processes (fabricnet, tests) keep their series apart;
	// serve them merged via obs.Render.
	reg *obs.Registry
	// cm holds each channel's registered instruments; read-only after New,
	// so the commit hot path observes without locks.
	cm map[string]*channelMetrics

	// workers sizes every channel's endorsement-validation pool
	// (commitWorkers); the rest of the commit runs serially.
	workers int

	// waiters maps each channel ID to its waiter table (AwaitCommit,
	// AwaitHeightOn); read-only after New.
	waiters map[string]*commitWaiters
}

// channelMetrics is one channel's registered commit instruments.
type channelMetrics struct {
	// stages maps stage name → latency histogram (the commitStages set,
	// built once at New).
	stages map[string]*obs.Histogram
	// blocks counts committed blocks; txOK/txRejected count transactions
	// by commit outcome.
	blocks     *obs.Counter
	txOK       *obs.Counter
	txRejected *obs.Counter
}

// observe records one stage latency.
func (cm *channelMetrics) observe(stage string, d time.Duration) {
	if cm == nil {
		return
	}
	cm.stages[stage].Observe(d)
}

// time runs fn and records its wall clock under stage.
func (cm *channelMetrics) time(stage string, fn func()) {
	if cm == nil {
		fn()
		return
	}
	//lint:ignore determinism stage timing only; durations feed metrics, never committed state
	start := time.Now()
	fn()
	cm.stages[stage].Observe(time.Since(start))
}

// New creates a peer with its own world state and chain per joined
// channel, signing with the given identity and trusting the given MSP
// roots. It fails when the channel list is invalid (empty or duplicate
// names), the configured state backend is unknown, or a channel store
// cannot be opened (the disk backend needs a usable Committer.DataDir;
// each channel persists under DataDir/<channel-ID>).
//
// With the disk backend, a peer constructed over a previously used DataDir
// resumes every channel from its persisted state: HeightOn reports the
// last durably committed block per channel, and CommitBlockOn
// fast-forwards re-delivered blocks up to that height instead of
// re-validating them.
func New(cfg Config, signer *cryptoid.Signer, msp *cryptoid.MSP) (*Peer, error) {
	ids := cfg.Channels
	if len(ids) == 0 {
		ids = []string{channel.DefaultChannel}
	}
	if err := channel.ValidateIDs(ids); err != nil {
		return nil, fmt.Errorf("peer %s: %w", cfg.Name, err)
	}
	p := &Peer{
		cfg:        cfg,
		signer:     signer,
		msp:        msp,
		channelIDs: append([]string(nil), ids...),
		channels:   make(map[string]*channel.Runtime, len(ids)),
		reg:        obs.NewRegistry(),
		cm:         make(map[string]*channelMetrics, len(ids)),
		workers:    commitWorkers(len(ids)),
		waiters:    make(map[string]*commitWaiters, len(ids)),
	}
	for _, id := range ids {
		rt, err := channel.NewRuntime(id, cfg.Committer)
		if err != nil {
			p.closeRuntimes()
			return nil, fmt.Errorf("peer %s: %w", cfg.Name, err)
		}
		p.channels[id] = rt
		p.waiters[id] = newCommitWaiters(rt.Height())
	}
	p.registerMetrics()
	return p, nil
}

// commitWorkers derives the size of one channel's endorsement-validation
// pool: the processors the Go scheduler will actually run on — GOMAXPROCS,
// not the host's core count, so a CPU-limited process does not spin up a
// core's worth of goroutines on its one P — shared evenly across the
// peer's channels, which commit in parallel (DESIGN.md §6); never below 1,
// where the pool runs inline.
func commitWorkers(channels int) int {
	return max(1, runtime.GOMAXPROCS(0)/channels)
}

// registerMetrics builds the peer's registry: stage histograms and commit
// counters per channel, scrape-time gauges over live state (heights, key
// counts, store sizes). Registration happens once here; afterwards the
// registry is only read (scrapes) or updated through atomics.
func (p *Peer) registerMetrics() {
	name := p.cfg.Name
	for _, id := range p.channelIDs {
		rt := p.channels[id]
		cm := &channelMetrics{
			stages:     make(map[string]*obs.Histogram, len(commitStages)),
			blocks:     p.reg.Counter(obs.MetricPeerBlocksCommitted, "peer", name, "channel", id),
			txOK:       p.reg.Counter(obs.MetricPeerTxsCommitted, "peer", name, "channel", id, "result", "committed"),
			txRejected: p.reg.Counter(obs.MetricPeerTxsCommitted, "peer", name, "channel", id, "result", "rejected"),
		}
		for _, stage := range commitStages {
			cm.stages[stage] = p.reg.Histogram(obs.MetricCommitStageSeconds,
				"peer", name, "channel", id, "stage", stage)
		}
		p.cm[id] = cm
		p.reg.GaugeFunc(obs.MetricPeerBlockHeight,
			func() float64 { return float64(rt.Height()) }, "peer", name, "channel", id)
		p.reg.GaugeFunc(obs.MetricStatedbKeys,
			func() float64 { return float64(rt.DB().KeyCount()) }, "peer", name, "channel", id)
		if _, durable := rt.DB().Stats(); durable {
			p.reg.GaugeFunc(obs.MetricStatedbLogBytes, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.LogBytes)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbAppends, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Appends)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbFsyncs, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Fsyncs)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCompactions, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Compactions)
			}, "peer", name, "channel", id)
			// LSM-only series (always zero on the disk backend, which has
			// no memtable flushes, sorted runs or block cache).
			p.reg.CounterFunc(obs.MetricStatedbFlushes, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Flushes)
			}, "peer", name, "channel", id)
			p.reg.GaugeFunc(obs.MetricStatedbRuns, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Runs)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCacheHits, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.CacheHits)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCacheMisses, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.CacheMisses)
			}, "peer", name, "channel", id)
		}
		if bs := rt.Blocks(); bs != nil {
			p.reg.GaugeFunc(obs.MetricBlockstoreHeight,
				func() float64 { return float64(bs.Height()) }, "peer", name, "channel", id)
			p.reg.GaugeFunc(obs.MetricBlockstoreLogBytes,
				func() float64 { return float64(bs.Stats().LogBytes) }, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricBlockstoreAppends,
				func() float64 { return float64(bs.Stats().Appends) }, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricBlockstoreFsyncs,
				func() float64 { return float64(bs.Stats().Fsyncs) }, "peer", name, "channel", id)
		}
	}
}

// Metrics returns the peer's registry, for serving (merged with the
// process Default registry) behind -metrics-addr and for test and
// benchmark readouts.
func (p *Peer) Metrics() *obs.Registry { return p.reg }

// closeRuntimes closes every opened channel runtime, keeping the first
// error.
func (p *Peer) closeRuntimes() error {
	var first error
	for _, id := range p.channelIDs {
		rt, ok := p.channels[id]
		if !ok {
			continue
		}
		if err := rt.Close(); err != nil && first == nil {
			first = fmt.Errorf("channel %s: %w", id, err)
		}
	}
	return first
}

// runtime resolves a channel ID to its commit runtime; empty means the
// default channel.
func (p *Peer) runtime(channelID string) (*channel.Runtime, error) {
	if channelID == "" {
		channelID = p.channelIDs[0]
	}
	rt, ok := p.channels[channelID]
	if !ok {
		return nil, fmt.Errorf("%w: %q on peer %s (joined: %v)", ErrUnknownChannel, channelID, p.cfg.Name, p.channelIDs)
	}
	return rt, nil
}

// channelMetricsFor resolves a channel ID (empty means default) to its
// registry-backed stage metrics; nil for unknown channels, which every
// channelMetrics method tolerates.
func (p *Peer) channelMetricsFor(channelID string) *channelMetrics {
	if channelID == "" {
		channelID = p.channelIDs[0]
	}
	return p.cm[channelID]
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.cfg.Name }

// MSPID returns the peer's organization.
func (p *Peer) MSPID() string { return p.cfg.MSPID }

// CRDTEnabled reports whether the FabricCRDT merge path is active.
func (p *Peer) CRDTEnabled() bool { return p.cfg.EnableCRDT }

// Channels returns the joined channel IDs in configuration order; the
// first is the default channel.
func (p *Peer) Channels() []string { return append([]string(nil), p.channelIDs...) }

// DefaultChannel returns the channel the single-channel convenience API
// (DB, Chain, Height, CommitBlock, Genesis) binds to.
func (p *Peer) DefaultChannel() string { return p.channelIDs[0] }

// DB exposes the default channel's world state (read-side: examples,
// tests).
func (p *Peer) DB() *statedb.DB { return p.channels[p.channelIDs[0]].DB() }

// DBOn exposes one channel's world state.
func (p *Peer) DBOn(channelID string) (*statedb.DB, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	return rt.DB(), nil
}

// Height returns the number of the last block whose writes reached the
// default channel's world state — with the disk backend, the last durably
// committed block, which survives restarts. Deliver loops can use it to
// resume at Height()+1; CommitBlock itself fast-forwards any block at or
// below it.
func (p *Peer) Height() uint64 { return p.channels[p.channelIDs[0]].Height() }

// HeightOn returns one channel's committed state height.
func (p *Peer) HeightOn(channelID string) (uint64, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return 0, err
	}
	return rt.Height(), nil
}

// Close releases every channel's state backend (a no-op for in-memory
// backends). With the disk backend it flushes each channel's log and
// surfaces the first deferred write error; the peer must not commit
// afterwards. Every commit wait still open is released first: its channel
// closes without an event, and AwaitHeightOn returns.
func (p *Peer) Close() error {
	for _, id := range p.channelIDs {
		p.waiters[id].release()
	}
	if err := p.closeRuntimes(); err != nil {
		return fmt.Errorf("peer %s: %w", p.cfg.Name, err)
	}
	return nil
}

// Chain exposes the default channel's blockchain.
func (p *Peer) Chain() *ledger.Chain { return p.channels[p.channelIDs[0]].Chain() }

// ChainOn exposes one channel's blockchain.
func (p *Peer) ChainOn(channelID string) (*ledger.Chain, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	return rt.Chain(), nil
}

// Genesis returns the default channel's genesis block, read from the
// chain's block log.
func (p *Peer) Genesis() *ledger.Block {
	g, err := p.Chain().Get(0)
	if err != nil {
		panic("peer: chain without genesis: " + err.Error())
	}
	return g
}

// InstallChaincode installs a chaincode with its endorsement policy on
// EVERY channel the peer joined — the install-everywhere convenience the
// network assembly uses. Installation itself is per channel (each channel
// runtime keeps its own registry, as Fabric deploys chaincode to channels);
// use InstallChaincodeOn to install on a single channel, leaving invokes on
// the others rejected.
func (p *Peer) InstallChaincode(name string, cc chaincode.Chaincode, policy *endorse.Policy) {
	for _, id := range p.channelIDs {
		p.channels[id].InstallChaincode(name, cc, policy)
	}
}

// InstallChaincodeOn installs a chaincode on one channel only. Proposals
// and committed transactions naming this chaincode on any other channel
// fail (ErrUnknownChaincode at endorsement, CodeEndorsementFailure at
// commit) — a transaction endorsed against one channel's chaincode cannot
// cross into another.
func (p *Peer) InstallChaincodeOn(channelID, name string, cc chaincode.Chaincode, policy *endorse.Policy) error {
	rt, err := p.runtime(channelID)
	if err != nil {
		return err
	}
	rt.InstallChaincode(name, cc, policy)
	return nil
}

// lookupChaincode returns the chaincode installed on one channel.
func (p *Peer) lookupChaincode(rt *channel.Runtime, name string) (channel.InstalledChaincode, error) {
	entry, ok := rt.Chaincode(name)
	if !ok {
		return channel.InstalledChaincode{}, fmt.Errorf("%w: %q on peer %s channel %s", ErrUnknownChaincode, name, p.cfg.Name, rt.ID())
	}
	return entry, nil
}

// Endorse simulates the proposal against the committed state of the
// proposal's channel and returns the signed read/write set (execution +
// endorsement phase). The world state is not modified (paper: "peers
// simulate the transaction proposal").
func (p *Peer) Endorse(prop Proposal) (ProposalResponse, error) {
	//lint:ignore determinism endorse timing only; durations feed metrics, never committed state
	start := time.Now()
	rt, err := p.runtime(prop.ChannelID)
	if err != nil {
		return ProposalResponse{}, err
	}
	// Normalize an empty (default-channel) proposal to the resolved
	// channel: the endorsement payload signs the channel ID, and the
	// committer rejects transactions whose ChannelID does not name the
	// channel they are delivered on — so the assembled transaction must
	// carry the resolved ID, never "".
	prop.ChannelID = rt.ID()
	creator, err := cryptoid.UnmarshalIdentity(prop.Creator)
	if err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrBadCreator, err)
	}
	if err := p.msp.VerifyIdentity(creator); err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrBadCreator, err)
	}
	entry, err := p.lookupChaincode(rt, prop.Chaincode)
	if err != nil {
		return ProposalResponse{}, err
	}
	stub := chaincode.NewSimStub(prop.TxID, prop.Args, rt.DB())
	if err := entry.Chaincode.Invoke(stub); err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrChaincodeFailed, err)
	}
	rw := stub.Result()
	if !p.cfg.EnableCRDT {
		// A stock Fabric peer has no notion of CRDT writes: the flags are
		// dropped and the writes validate/commit as ordinary ones.
		for i := range rw.Writes {
			rw.Writes[i].IsCRDT = false
			rw.Writes[i].CRDTType = ""
		}
	}
	payload, err := endorsementPayload(prop, rw)
	if err != nil {
		return ProposalResponse{}, err
	}
	endorser, err := p.signer.Identity.Marshal()
	if err != nil {
		return ProposalResponse{}, err
	}
	obs.Trace(prop.TraceID, "peer.endorse", start,
		"peer", p.cfg.Name, "txID", prop.TxID, "channel", prop.ChannelID)
	return ProposalResponse{
		Endorser:  endorser,
		ChannelID: prop.ChannelID,
		RWSet:     rw,
		Signature: p.signer.Sign(payload),
	}, nil
}

// endorsementPayload derives the signed payload from a proposal + rwset,
// matching Transaction.EndorsementPayload for the assembled transaction.
func endorsementPayload(prop Proposal, rw rwset.ReadWriteSet) ([]byte, error) {
	tx := ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: prop.ChannelID,
		Chaincode: prop.Chaincode,
		RWSet:     rw,
	}
	return tx.EndorsementPayload()
}

// commitWaiters is one channel's waiter table: the submissions waiting
// for a transaction's commit outcome, keyed by transaction ID, plus the
// channel's committed height for AwaitHeightOn. The append stage of
// FinalizeBlockOn resolves it once per block; nothing is queued for anyone
// who is not waiting.
type commitWaiters struct {
	mu   sync.Mutex
	byTx map[string][]chan CommitEvent
	// height is the last block whose append stage ran; grew is closed and
	// replaced each time it moves, waking every AwaitHeightOn caller.
	height uint64
	grew   chan struct{}
	closed bool
}

func newCommitWaiters(height uint64) *commitWaiters {
	return &commitWaiters{byTx: make(map[string][]chan CommitEvent), height: height, grew: make(chan struct{})}
}

// resolve publishes one committed block: every waiter registered for one
// of its transactions receives that transaction's event, and the height
// moves. Each waiter's channel has one slot and receives exactly one
// event, so the hand-off never blocks the commit. A closed table (the
// peer is closing) has nobody left to tell.
func (w *commitWaiters) resolve(channelID string, block uint64, txs []*ledger.Transaction, codes []ledger.ValidationCode) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	if len(w.byTx) > 0 {
		for i, tx := range txs {
			waiting, ok := w.byTx[tx.ID]
			if !ok {
				continue
			}
			delete(w.byTx, tx.ID)
			ev := CommitEvent{TxID: tx.ID, ChannelID: channelID, BlockNum: block, Code: codes[i]}
			for _, ch := range waiting {
				select {
				case ch <- ev:
				default: // unreachable: one slot, one send
				}
			}
		}
	}
	w.height = block
	close(w.grew)
	w.grew = make(chan struct{})
}

// cancel withdraws one registration; a no-op once it was resolved.
func (w *commitWaiters) cancel(txID string, ch chan CommitEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	waiting := w.byTx[txID]
	i := slices.Index(waiting, ch)
	switch {
	case i < 0:
	case len(waiting) == 1:
		delete(w.byTx, txID)
	default:
		w.byTx[txID] = slices.Delete(waiting, i, i+1)
	}
}

// release closes every open waiter's channel without an event and wakes
// the height waiters for good; the peer is closing.
func (w *commitWaiters) release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	//lint:sorted closing every channel is order-independent
	for _, waiting := range w.byTx {
		for _, ch := range waiting {
			close(ch)
		}
	}
	w.byTx = nil
	close(w.grew)
}

// waitersFor resolves a channel ID (empty means default) to its waiter
// table.
func (p *Peer) waitersFor(channelID string) (*commitWaiters, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	return p.waiters[rt.ID()], nil
}

// AwaitCommit registers a wait for one transaction's commit outcome on one
// channel (empty means the default channel). The returned channel receives
// the transaction's CommitEvent when this peer commits the block carrying
// it; it is closed without an event if the peer closes first. Register
// before broadcasting, so the commit cannot run ahead of the wait, and call
// cancel once done waiting (a no-op after the event arrived). Every
// registration for the same (channel, ID) receives the event; the same ID
// on another channel is another transaction.
func (p *Peer) AwaitCommit(channelID, txID string) (<-chan CommitEvent, func(), error) {
	w, err := p.waitersFor(channelID)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan CommitEvent, 1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		close(ch)
		return ch, func() {}, nil
	}
	w.byTx[txID] = append(w.byTx[txID], ch)
	return ch, func() { w.cancel(txID, ch) }, nil
}

// AwaitHeightOn blocks until the channel has committed block n (its
// committed height is at least n) and returns that height. ok is false
// when stop closes, the peer closes or the channel is not joined first.
func (p *Peer) AwaitHeightOn(channelID string, n uint64, stop <-chan struct{}) (height uint64, ok bool) {
	w, err := p.waitersFor(channelID)
	if err != nil {
		return 0, false
	}
	for {
		w.mu.Lock()
		height, grew, closed := w.height, w.grew, w.closed
		w.mu.Unlock()
		switch {
		case height >= n:
			return height, true
		case closed:
			return height, false
		}
		select {
		case <-grew:
		case <-stop:
			return height, false
		}
	}
}

// validateEndorsements checks the signatures and endorsement policy of one
// transaction against one channel's chaincode registry, returning
// CodeNotValidated when it passes (the decision then falls to the merge
// engine or MVCC validation). A chaincode not installed on the committing
// channel — even if installed on another channel of this peer — is an
// endorsement failure: invokes do not cross channels.
func (p *Peer) validateEndorsements(rt *channel.Runtime, tx *ledger.Transaction) ledger.ValidationCode {
	entry, err := p.lookupChaincode(rt, tx.Chaincode)
	if err != nil {
		return ledger.CodeEndorsementFailure
	}
	payload, err := tx.EndorsementPayload()
	if err != nil {
		return ledger.CodeBadSignature
	}
	var orgs []string
	for _, end := range tx.Endorsements {
		id, err := cryptoid.UnmarshalIdentity(end.Endorser)
		if err != nil {
			return ledger.CodeBadSignature
		}
		if err := p.msp.VerifySignature(id, payload, end.Signature); err != nil {
			return ledger.CodeBadSignature
		}
		orgs = append(orgs, id.MSPID)
	}
	if !entry.Policy.Satisfied(orgs) {
		return ledger.CodeEndorsementFailure
	}
	return ledger.CodeNotValidated
}

// SyncFrom catches this peer up to a source peer by fetching and
// committing, channel by channel, every block this peer is missing — the
// state-transfer path a freshly joined or restarted peer runs before
// serving endorsements. The source must have every channel this peer
// joined; a restarted durable source's chains read their durable block
// stores, which cover [0, height), so syncing from block 0 works across
// the source's restarts. Blocks are re-validated from scratch (endorsements,
// merge, MVCC), so a lying source cannot inject invalid state; only the
// hash-chained block contents are trusted as delivered.
func (p *Peer) SyncFrom(source *Peer) error {
	for _, id := range p.channelIDs {
		rt := p.channels[id]
		srcChain, err := source.ChainOn(id)
		if err != nil {
			return fmt.Errorf("peer %s: syncing channel %s from %s: %w", p.cfg.Name, id, source.Name(), err)
		}
		for {
			next := rt.Chain().Height()
			if next >= srcChain.Height() {
				break
			}
			block, err := srcChain.Get(next)
			if err != nil {
				return fmt.Errorf("peer %s: fetching block %d of channel %s from %s: %w", p.cfg.Name, next, id, source.Name(), err)
			}
			if _, err := p.CommitBlockOn(id, block); err != nil {
				return fmt.Errorf("peer %s: syncing block %d of channel %s: %w", p.cfg.Name, next, id, err)
			}
		}
	}
	return nil
}

// RebuildState replays each channel's blockchain into a fresh world state
// — the recovery path a peer runs after a crash (paper §2.1: "executing
// all valid transactions included in the blockchain starting from the
// genesis block results in the current state"). The committed blocks
// already carry their validation codes, so replay applies exactly the
// recorded outcomes and reproduces the live state byte for byte
// (channel.Runtime.ReplayBlock). Channels rebuild independently.
//
// The chain's block log covers the full history — across restarts on a
// durable backend — so every peer rebuilds from block 0.
func (p *Peer) RebuildState() error {
	for _, id := range p.channelIDs {
		if err := p.rebuildChannel(p.channels[id]); err != nil {
			return err
		}
	}
	return nil
}

func (p *Peer) rebuildChannel(rt *channel.Runtime) error {
	rt.Lock()
	defer rt.Unlock()
	rt.DB().Reset()
	chain := rt.Chain()
	for n := uint64(1); n < chain.Height(); n++ {
		block, err := chain.Get(n)
		if err != nil {
			return fmt.Errorf("peer %s: rebuilding channel %s: %w", p.cfg.Name, rt.ID(), err)
		}
		if err := rt.ReplayBlock(block); err != nil {
			return fmt.Errorf("peer %s: replaying block %d of channel %s: %w", p.cfg.Name, n, rt.ID(), err)
		}
	}
	return nil
}
