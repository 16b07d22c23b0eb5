package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fabriccrdt/internal/blockstore"
	"fabriccrdt/internal/client"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/mvcc"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
	"fabriccrdt/internal/transport"
	"fabriccrdt/internal/txgraph"
	"fabriccrdt/internal/wire"
	"fabriccrdt/internal/workload"
)

// The layer replay times calls into each layer's public functions, on one
// goroutine of the benchmark process, with the run's own block stream as
// input. Allocation figures are runtime.MemStats deltas around the calls.

// cost accumulates the time and allocations of measured calls.
type cost struct {
	dur     time.Duration
	mallocs uint64
	bytes   uint64
	units   int
}

// measure runs fn and charges it to c as units units of work.
func (c *cost) measure(units int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	c.dur += time.Since(start)
	runtime.ReadMemStats(&after)
	c.mallocs += after.Mallocs - before.Mallocs
	c.bytes += after.TotalAlloc - before.TotalAlloc
	c.units += units
}

func (c *cost) per(total float64) float64 {
	if c.units == 0 {
		return 0
	}
	return total / float64(c.units)
}

// emit reports the cost under row: ns and allocs per unit, bytes where the
// catalogue has the row.
func (c *cost) emit(rep *report, row, per string) {
	rep.layer("replay", row+"_ns_per_"+per, c.per(float64(c.dur.Nanoseconds())), c.units)
	rep.layer("replay", row+"_allocs_per_"+per, c.per(float64(c.mallocs)), c.units)
	if _, err := lookup(perLayer, row+"_bytes_per_"+per); err == nil {
		rep.layer("replay", row+"_bytes_per_"+per, c.per(float64(c.bytes)), c.units)
	}
}

// demoMSP is the trust root set every fabricnet process derives.
func demoMSP() *cryptoid.MSP {
	msp := cryptoid.NewMSP()
	for _, org := range []string{"Org1", "Org2", "Org3"} {
		msp.AddOrg(org, cryptoid.NewDeterministicCA(org, caSeed).PublicKey())
	}
	return msp
}

// replayed is a peer in the benchmark process that committed the run's
// blocks: the single-node baseline, and the oracle for the hot documents.
type replayed struct {
	peer              *peer.Peer
	prepare, finalize cost
}

// replayChunk is how many blocks are prepared, then finalized, between
// two allocation readings.
const replayChunk = 32

// replayOnPeer commits the orderer's streams on a fresh in-process peer
// with the workload's configuration, timing PrepareBlockOn and
// FinalizeBlockOn, and checks it reaches the same heights with every
// transaction committed and the hot documents at their expected length.
func replayOnPeer(env *benchEnv, w workloadSpec, gen *workload.IoTGenerator, blocks map[string][]*ledger.Block, hot map[string]int) (*replayed, error) {
	signer, err := cryptoid.NewDeterministicCA("Org3", caSeed).Issue("bench.replay")
	if err != nil {
		return nil, err
	}
	cfg := peer.Config{Name: "bench.replay", MSPID: "Org3", Channels: w.Channels, EnableCRDT: w.CRDT}
	if w.Durable {
		dir, err := env.ps.tempDir("replay-")
		if err != nil {
			return nil, err
		}
		cfg.Committer.Backend = peer.BackendLSM
		cfg.Committer.DataDir = dir
	}
	p, err := peer.New(cfg, signer, demoMSP())
	if err != nil {
		return nil, err
	}
	p.InstallChaincode("iot", gen.Chaincode(), endorse.MustParse(wirePolicy))
	r := &replayed{peer: p}
	for _, ch := range w.Channels {
		stream := blocks[ch]
		for from := 0; from < len(stream); from += replayChunk {
			chunk := stream[from:min(from+replayChunk, len(stream))]
			txs := 0
			for _, b := range chunk {
				txs += len(b.Transactions)
			}
			prepared := make([]*peer.PreparedBlock, len(chunk))
			r.prepare.measure(txs, func() {
				for i, b := range chunk {
					if prepared[i], err = p.PrepareBlockOn(ch, b); err != nil {
						return
					}
				}
			})
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("replay peer: preparing on %s: %w", ch, err)
			}
			r.finalize.measure(txs, func() {
				for _, prep := range prepared {
					var res peer.CommitResult
					if res, err = p.FinalizeBlockOn(prep); err != nil {
						return
					}
					if res.CommittedTx != len(res.Codes) {
						err = fmt.Errorf("block %d: %d of %d transactions committed", res.BlockNum, res.CommittedTx, len(res.Codes))
						return
					}
				}
			})
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("replay peer: finalizing on %s: %w", ch, err)
			}
		}
		if err := checkReplayState(p, ch, uint64(len(stream)), gen, hot[ch]); err != nil {
			p.Close()
			return nil, err
		}
	}
	return r, nil
}

// checkReplayState checks the replay peer's height and, where the channel
// took hot transactions, that the merged hot document holds one reading
// per hot transaction submitted.
func checkReplayState(p *peer.Peer, ch string, height uint64, gen *workload.IoTGenerator, hot int) error {
	got, err := p.HeightOn(ch)
	if err != nil {
		return err
	}
	if got != height {
		return fmt.Errorf("replay peer is at height %d on %s, the network at %d", got, ch, height)
	}
	if hot == 0 || !p.CRDTEnabled() {
		return nil
	}
	db, err := p.DBOn(ch)
	if err != nil {
		return err
	}
	vv, ok := db.Get(gen.HotKeys()[0])
	if !ok {
		return fmt.Errorf("replay peer has no hot document on %s after %d hot transactions", ch, hot)
	}
	n, err := readingCount(vv.Value)
	if err != nil {
		return fmt.Errorf("hot document on %s: %w", ch, err)
	}
	if n != hot {
		return fmt.Errorf("hot document on %s holds %d readings, %d hot transactions were submitted", ch, n, hot)
	}
	return nil
}

// layerReplay produces every section-C row from the run's block streams.
func layerReplay(env *benchEnv, w workloadSpec, gen *workload.IoTGenerator, u *untraced, rep *report) error {
	var all []*ledger.Block
	for _, ch := range w.Channels {
		all = append(all, u.blocks[ch]...)
	}
	if err := replayLedger(all, rep); err != nil {
		return err
	}
	r, err := replayOnPeer(env, w, gen, u.blocks, u.tally.hot)
	if err != nil {
		return err
	}
	defer r.peer.Close()
	r.prepare.emit(rep, "peer.prepare_block", "tx")
	r.finalize.emit(rep, "peer.finalize_block", "tx")
	for _, step := range []func() error{
		func() error { return replayValidation(w, u.blocks, rep) },
		func() error { return replayDocument(w, gen, r.peer, rep) },
		func() error { return replayOrderer(w, u.blocks, rep) },
		func() error { return replayEndorsement(env, w, r.peer, rep) },
		func() error { return replayBlockstore(env, w, u.blocks, rep) },
		func() error { return replayStatedb(env, all, rep) },
		func() error { return replayWire(all, rep) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func countTxs(blocks []*ledger.Block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Transactions)
	}
	return n
}

// replayLedger times the block codec on every block of the run.
func replayLedger(blocks []*ledger.Block, rep *report) error {
	txs := countTxs(blocks)
	raws := make([][]byte, len(blocks))
	var marshal, unmarshal cost
	var err error
	marshal.measure(txs, func() {
		for i, b := range blocks {
			if raws[i], err = b.Marshal(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	encoded := 0
	for _, raw := range raws {
		encoded += len(raw)
	}
	unmarshal.measure(txs, func() {
		for _, raw := range raws {
			if _, err = ledger.UnmarshalBlock(raw); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	marshal.emit(rep, "ledger.block_marshal", "tx")
	unmarshal.emit(rep, "ledger.block_unmarshal", "tx")
	rep.layer("replay", "ledger.block_encoded_bytes_per_tx", float64(encoded)/float64(txs), txs)
	return nil
}

// replayValidation walks each channel's stream through the finalize
// stage's three deciders — txgraph.Build, core.MergeBlock and
// mvcc.ValidateBlock — in the committer's order over an evolving in-memory
// state, charging each its own time.
func replayValidation(w workloadSpec, blocks map[string][]*ledger.Block, rep *report) error {
	var graph, merge, validate cost
	for _, ch := range w.Channels {
		db := statedb.New()
		engine := core.NewEngine(db, core.Options{})
		validator := mvcc.New(db)
		for _, b := range blocks[ch] {
			raw, err := b.Marshal()
			if err != nil {
				return err
			}
			view, err := ledger.UnmarshalBlock(raw) // the merge rewrites write sets: work on a copy
			if err != nil {
				return err
			}
			n := len(view.Transactions)
			codes := make([]ledger.ValidationCode, n)
			graph.measure(n, func() { txgraph.Build(view.Transactions, codes, w.CRDT) })
			var res core.Result
			if w.CRDT {
				merge.measure(n, func() { res, err = engine.MergeBlock(view, codes) })
				if err != nil {
					return fmt.Errorf("core.MergeBlock on block %d of %s: %w", b.Header.Number, ch, err)
				}
			}
			validate.measure(n, func() { validator.ValidateBlock(view.Header.Number, view.Transactions, codes) })
			batch := mvcc.BuildCommitBatch(view.Header.Number, view.Transactions, codes)
			core.StageDocStates(batch, res)
			db.Apply(batch, rwset.Version{BlockNum: view.Header.Number})
		}
	}
	graph.emit(rep, "txgraph.build", "tx")
	validate.emit(rep, "mvcc.validate_block", "tx")
	merge.emit(rep, "core.merge_block", "tx")
	return nil
}

// docOps is how many times each document operation is repeated.
const docOps = 20

// replayDocument times the JSON CRDT on the document the run ended with:
// the hot device document where the workload has one, else the document
// of the run's first cold key.
func replayDocument(w workloadSpec, gen *workload.IoTGenerator, p *peer.Peer, rep *report) error {
	doc := jsoncrdt.NewDoc(core.MergeReplica)
	if w.CRDT {
		db, err := p.DBOn(w.Channels[0])
		if err != nil {
			return err
		}
		key := gen.HotKeys()[0]
		if w.ConflictPct == 0 {
			kvs := db.GetRange("device-", "device-hot")
			if len(kvs) == 0 {
				return fmt.Errorf("replay peer holds no device document")
			}
			key = kvs[0].Key
		}
		loaded, err := core.LoadDoc(db, key)
		if err != nil {
			return err
		}
		if loaded == nil {
			return fmt.Errorf("replay peer holds no CRDT document for %s", key)
		}
		doc = loaded
	} else {
		// CRDT off: nothing was merged. Time the codec on a one-delta
		// document so the rows exist on every workload.
		var delta any
		if err := json.Unmarshal(gen.Delta(0), &delta); err != nil {
			return err
		}
		if err := doc.MergeJSON(delta); err != nil {
			return err
		}
	}
	var state []byte
	var marshal, unmarshal, merge cost
	var err error
	marshal.measure(docOps, func() {
		for i := 0; i < docOps; i++ {
			if state, err = doc.MarshalBinary(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	unmarshal.measure(docOps, func() {
		for i := 0; i < docOps; i++ {
			if err = jsoncrdt.NewDoc(core.MergeReplica).UnmarshalBinary(state); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// Merge fresh deltas — spec indexes past anything the run used — into
	// a copy, as the engine does once per hot transaction.
	work, err := doc.Clone()
	if err != nil {
		return err
	}
	deltas := make([]any, docOps)
	for i := range deltas {
		if err := json.Unmarshal(gen.Delta(seedStride-1-i), &deltas[i]); err != nil {
			return err
		}
	}
	merge.measure(docOps, func() {
		for _, d := range deltas {
			if err = work.MergeJSON(d); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	merge.emit(rep, "jsoncrdt.merge_json", "op")
	marshal.emit(rep, "jsoncrdt.marshal_binary", "op")
	unmarshal.emit(rep, "jsoncrdt.unmarshal_binary", "op")
	rep.layer("replay", "jsoncrdt.doc_state_bytes", float64(len(state)), 1)
	return nil
}

// replayOrderer feeds each channel's transactions, in their committed
// order, through the block cutter and assembler.
func replayOrderer(w workloadSpec, blocks map[string][]*ledger.Block, rep *report) error {
	var cut cost
	for _, ch := range w.Channels {
		genesis, err := ledger.NewChain(ch).Get(0)
		if err != nil {
			return err
		}
		var txs []*ledger.Transaction
		for _, b := range blocks[ch] {
			txs = append(txs, b.Transactions...)
		}
		cutter := orderer.NewCutter(orderer.DefaultConfig(ordererBlockSize))
		assembler := orderer.NewAssembler(genesis)
		cut.measure(len(txs), func() {
			for _, tx := range txs {
				var batches []orderer.Batch
				if batches, err = cutter.Ordered(tx); err != nil {
					return
				}
				for _, batch := range batches {
					if _, err = assembler.Assemble(batch); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	cut.emit(rep, "orderer.cut", "tx")
	return nil
}

// endorseOps is how many proposals and signatures the endorsement rows
// time.
const endorseOps = 100

// localEndorser lets the SDK client endorse on the in-process replay peer.
type localEndorser struct{ p *peer.Peer }

func (l localEndorser) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	return l.p.Endorse(prop)
}
func (l localEndorser) MSPID() string { return l.p.MSPID() }
func (l localEndorser) Name() string  { return l.p.Name() }

// replayEndorsement times the execution phase against the replay peer's
// end-of-run state — client.Prepare (proposal, endorsement, envelope) and
// peer.Endorse alone — and the two signature primitives under them.
// Nothing is committed; the spec indexes are past anything the run used.
func replayEndorsement(env *benchEnv, w workloadSpec, p *peer.Peer, rep *report) error {
	ch := w.Channels[0]
	cl := client.New(env.signer, ch, []client.Endorser{localEndorser{p}}, nil)
	creator, err := env.signer.Identity.Marshal()
	if err != nil {
		return err
	}
	first := int(env.seed)*seedStride + seedStride/2
	var prepare, endorseCost, sign, verify cost
	var tx *ledger.Transaction
	prepare.measure(endorseOps, func() {
		for i := 0; i < endorseOps; i++ {
			if tx, err = cl.Prepare("iot", workload.SpecArgs(first+i)...); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("client.Prepare on the replay peer: %w", err)
	}
	endorseCost.measure(endorseOps, func() {
		for i := 0; i < endorseOps; i++ {
			prop := peer.Proposal{TxID: cl.NewTxID(), ChannelID: ch, Chaincode: "iot", Args: workload.SpecArgs(first + i), Creator: creator}
			if _, err = p.Endorse(prop); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("peer.Endorse on the replay peer: %w", err)
	}
	payload, err := tx.EndorsementPayload()
	if err != nil {
		return err
	}
	var sig []byte
	sign.measure(endorseOps, func() {
		for i := 0; i < endorseOps; i++ {
			sig = env.signer.Sign(payload)
		}
	})
	verify.measure(endorseOps, func() {
		for i := 0; i < endorseOps; i++ {
			if err = cryptoid.Verify(env.signer.Identity, payload, sig); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for _, row := range []struct {
		c         *cost
		name, per string
	}{
		{&prepare, "client.prepare", "tx"}, {&endorseCost, "endorse.endorse", "tx"},
		{&sign, "cryptoid.sign", "op"}, {&verify, "cryptoid.verify", "op"},
	} {
		row.c.emit(rep, row.name, row.per)
	}
	return nil
}

// replayBlockstore appends the first channel's stream to a fresh block
// store on disk and reads it back.
func replayBlockstore(env *benchEnv, w workloadSpec, blocks map[string][]*ledger.Block, rep *report) error {
	ch := w.Channels[0]
	dir, err := env.ps.tempDir("blocks-")
	if err != nil {
		return err
	}
	store, err := blockstore.Open(dir, blockstore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	genesis, err := ledger.NewChain(ch).Get(0)
	if err != nil {
		return err
	}
	if err := store.Append(genesis); err != nil {
		return err
	}
	stream := blocks[ch]
	txs := countTxs(stream)
	var appendCost, get cost
	appendCost.measure(txs, func() {
		for _, b := range stream {
			if err = store.Append(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	get.measure(txs, func() {
		for _, b := range stream {
			if _, err = store.Get(b.Header.Number); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	appendCost.emit(rep, "blockstore.append", "tx")
	get.emit(rep, "blockstore.get", "tx")
	return nil
}

// Sizes of the LSM read-miss probe: a dataset several times larger than
// the block cache, so point reads mostly decode a block from a run file.
const (
	missCacheBytes    = 64 << 10
	missMemtableBytes = 256 << 10
	missKeys          = 8000
	missValueBytes    = 256
	missReads         = 2000
)

// stateReads is how many keys each backend's get and range rows read at
// least; scanKeys is the length of one range scan.
const (
	stateReads = 2000
	scanKeys   = 100
)

// replayStatedb applies every write set of the run, one batch per block,
// to each backend, then reads the keys back singly and by range.
func replayStatedb(env *benchEnv, blocks []*ledger.Block, rep *report) error {
	type blockWrites struct {
		num    uint64
		writes []rwset.Write
	}
	var batches []blockWrites
	seen := make(map[string]bool)
	var keys []string
	for i, b := range blocks {
		bw := blockWrites{num: uint64(i + 1)}
		for _, tx := range b.Transactions {
			for _, wr := range tx.RWSet.Writes {
				bw.writes = append(bw.writes, wr)
				if !seen[wr.Key] {
					seen[wr.Key] = true
					keys = append(keys, wr.Key)
				}
			}
		}
		batches = append(batches, bw)
	}
	sort.Strings(keys)
	for _, backend := range stateBackends {
		db, err := openStateBackend(env, backend, statedb.LSMOptions{})
		if err != nil {
			return err
		}
		var apply, get, scan cost
		for _, bw := range batches {
			batch := statedb.NewUpdateBatch()
			for j, wr := range bw.writes {
				batch.Put(wr.Key, wr.Value, rwset.Version{BlockNum: bw.num, TxNum: uint64(j)})
			}
			apply.measure(batch.Len(), func() { db.Apply(batch, rwset.Version{BlockNum: bw.num}) })
		}
		reads := max(stateReads, len(keys))
		get.measure(reads, func() {
			for i := 0; i < reads; i++ {
				db.Get(keys[i%len(keys)])
			}
		})
		// Range scans of up to scanKeys keys from spread-out start keys.
		for i := 0; scan.units < stateReads && i < stateReads; i++ {
			lo := i * 97 % len(keys)
			end := "" // to the last key
			if lo+scanKeys < len(keys) {
				end = keys[lo+scanKeys]
			}
			var kvs []statedb.KV
			scan.measure(0, func() { kvs = db.GetRange(keys[lo], end) })
			scan.units += max(len(kvs), 1)
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("closing the %s backend: %w", backend, err)
		}
		for _, row := range []struct {
			c  *cost
			op string
		}{{&apply, "apply"}, {&get, "get"}, {&scan, "range"}} {
			row.c.emit(rep, "statedb."+backend+"."+row.op, "key")
		}
	}

	// The read-miss probe: synthetic values, because the run's own state
	// may be smaller than any cache.
	db, err := openStateBackend(env, "lsm", statedb.LSMOptions{CacheBytes: missCacheBytes, MemtableBytes: missMemtableBytes})
	if err != nil {
		return err
	}
	defer db.Close()
	value := make([]byte, missValueBytes)
	const perBatch = 100
	for first := 0; first < missKeys; first += perBatch {
		batch := statedb.NewUpdateBatch()
		num := uint64(first/perBatch + 1)
		for i := first; i < first+perBatch; i++ {
			batch.Put(fmt.Sprintf("miss-%06d", i), value, rwset.Version{BlockNum: num})
		}
		db.Apply(batch, rwset.Version{BlockNum: num})
	}
	var miss cost
	miss.measure(missReads, func() {
		for i := 0; i < missReads; i++ {
			// A stride coprime to the key count visits blocks far apart.
			db.Get(fmt.Sprintf("miss-%06d", (i*2477)%missKeys))
		}
	})
	rep.Notes = append(rep.Notes, fmt.Sprintf("statedb.lsm.get_miss_ns: %d keys x %d B values (%d KiB) behind a %d KiB block cache, %d KiB memtable",
		missKeys, missValueBytes, missKeys*missValueBytes>>10, missCacheBytes>>10, missMemtableBytes>>10))
	rep.layer("replay", "statedb.lsm.get_miss_ns", miss.per(float64(miss.dur.Nanoseconds())), miss.units)
	return nil
}

// openStateBackend opens one statedb backend, durable ones in a scratch
// directory.
func openStateBackend(env *benchEnv, backend string, lsm statedb.LSMOptions) (*statedb.DB, error) {
	switch backend {
	case "memory":
		return statedb.New(), nil
	case "sharded":
		return statedb.NewSharded(8), nil
	}
	dir, err := env.ps.tempDir("state-" + backend + "-")
	if err != nil {
		return nil, err
	}
	if backend == "disk" {
		return statedb.NewDisk(filepath.Join(dir, "db"))
	}
	return statedb.NewLSMWithOptions(filepath.Join(dir, "db"), lsm)
}

// wireOps is how many round trips the wire rows time.
const wireOps = 300

// stubTransport answers wire calls from memory, so the wire rows time the
// framing and the socket, not a peer: Endorse returns a canned response,
// Broadcast accepts, Deliver streams the run's blocks.
type stubTransport struct {
	history *transport.History
	resp    peer.ProposalResponse
}

func (s *stubTransport) Deliver(_ string, from uint64) (transport.BlockStream, error) {
	return s.history.Stream(from)
}
func (s *stubTransport) Broadcast(*ledger.Transaction) error { return nil }
func (s *stubTransport) Endorse(peer.Proposal) (peer.ProposalResponse, error) {
	return s.resp, nil
}
func (s *stubTransport) Submit(*ledger.Transaction) (peer.CommitEvent, error) {
	return peer.CommitEvent{}, transport.ErrUnsupported
}
func (s *stubTransport) Close() error { return nil }

// replayWire times the wire transport alone: a wire.Server in this process
// over the stub, a wire.Client on loopback.
func replayWire(blocks []*ledger.Block, rep *report) error {
	tx := blocks[0].Transactions[0]
	stub := &stubTransport{
		history: transport.NewHistory(1),
		resp:    peer.ProposalResponse{Endorser: tx.Endorsements[0].Endorser, ChannelID: tx.ChannelID, RWSet: tx.RWSet, Signature: tx.Endorsements[0].Signature},
	}
	// One chain of blocks for the stream: renumber, since the run's
	// channels each start at 1.
	for i, b := range blocks {
		cp := *b
		cp.Header.Number = uint64(i + 1)
		if err := stub.history.Append(&cp); err != nil {
			return err
		}
	}
	srv := wire.NewServer(stub, transport.Info{Name: "bench.stub", Channels: []string{"ch1"}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	defer stub.history.Close()
	conn, err := wire.Dial(addr.String(), wire.ClientConfig{})
	if err != nil {
		return err
	}
	defer conn.Close()

	prop := peer.Proposal{TxID: tx.ID, ChannelID: tx.ChannelID, Chaincode: tx.Chaincode, Args: tx.Args, Creator: tx.Creator}
	start := time.Now()
	for i := 0; i < wireOps; i++ {
		if _, err := conn.Endorse(prop); err != nil {
			return err
		}
	}
	unary := time.Since(start)
	start = time.Now()
	for i := 0; i < wireOps; i++ {
		if err := conn.Broadcast(tx); err != nil {
			return err
		}
	}
	broadcast := time.Since(start)
	start = time.Now()
	got, err := func() (int, error) {
		stream, err := conn.Deliver("ch1", 1)
		if err != nil {
			return 0, err
		}
		defer stream.Close()
		timer := time.AfterFunc(phaseLimit, func() { stream.Close() })
		defer timer.Stop()
		for n := 0; n < len(blocks); n++ {
			if _, err := stream.Recv(); err != nil {
				return n, err
			}
		}
		return len(blocks), nil
	}()
	if err != nil {
		return fmt.Errorf("wire deliver stopped after %d of %d blocks: %w", got, len(blocks), err)
	}
	deliver := time.Since(start)

	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	rep.layer("replay", "wire.unary_rtt_us", us(unary, wireOps), wireOps)
	rep.layer("replay", "wire.broadcast_rtt_us", us(broadcast, wireOps), wireOps)
	rep.layer("replay", "wire.deliver_us_per_block", us(deliver, len(blocks)), len(blocks))
	return nil
}
