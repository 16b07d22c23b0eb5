package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
)

// setupRepeats is how many times a run sets the network up: setup_s is the
// median, and only the last network is kept and driven.
const setupRepeats = 7

// perLayerScale shrinks the untraced phases of a per-layer run, which also
// has to fit the traced phase and the layer replay into the same budget.
const perLayerScale = 0.5

// benchEnv is what every run of this process shares.
type benchEnv struct {
	ps      *procSet
	signer  *cryptoid.Signer // the driver's client identity
	buildS  float64          // seconds `go build ./cmd/fabricnet` took
	seed    int64
	seconds int
}

// scrapeSet is one /metrics scrape of the orderer and both serving peers.
type scrapeSet struct {
	orderer series
	peers   [2]series
}

func scrapeNetwork(n *network) (scrapeSet, error) {
	var s scrapeSet
	var err error
	if s.orderer, err = scrape(n.orderer.metricsAddr); err != nil {
		return s, err
	}
	for i, sp := range n.peers {
		if s.peers[i], err = scrape(sp.metricsAddr); err != nil {
			return s, err
		}
	}
	return s, nil
}

// cpuSet is one reading of every process's CPU time.
type cpuSet struct {
	orderer time.Duration
	peers   [2]time.Duration
	driver  time.Duration
}

func readCPU(n *network) (cpuSet, error) {
	var c cpuSet
	var err error
	ord, peers := n.pids()
	if c.orderer, err = procCPU(ord); err != nil {
		return c, err
	}
	for i, pid := range peers {
		if c.peers[i], err = procCPU(pid); err != nil {
			return c, err
		}
	}
	c.driver, err = procCPU(os.Getpid())
	return c, err
}

// untraced is everything one untraced network run produced.
type untraced struct {
	net     *network
	setups  []float64 // seconds, one per set-up
	paced   pacedResult
	sat     satResult
	tally   *tally
	catchup time.Duration // zero when the phase was skipped

	// Saturation-phase deltas, read between phases only.
	scrapeBefore, scrapeAfter scrapeSet
	cpuBefore, cpuAfter       cpuSet
	diskBefore, diskAfter     diskUsage
	peakRSS                   float64 // MiB, mean over the two serving peers

	// blocks is the orderer's stream per channel, kept for the replay.
	blocks map[string][]*ledger.Block
}

// runUntraced drives the three timed phases on one untraced network and
// checks every process's view of the result.
func runUntraced(env *benchEnv, w workloadSpec, size sizing, withCatchup bool) (*untraced, error) {
	u := &untraced{tally: newTally()}

	// Set the network up several times; keep the last.
	var n *network
	for i := 0; i < setupRepeats; i++ {
		if n != nil {
			// A set-up torn down at once may be signalled before the
			// process has installed its handler and die of the signal:
			// its exit status says nothing, it only has to be gone.
			_ = n.shutdown()
		}
		var err error
		if n, err = startNetwork(env.ps, w, false, env.signer); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		u.setups = append(u.setups, n.setupDur.Seconds())
	}
	u.net = n
	d := newDriver(n, env.seed)

	var err error
	if u.paced, err = d.runPaced(size.PacedN, w.PacedRate); err != nil {
		return u, err
	}
	u.tally.add(d.gen, u.paced.records)
	if err := u.tally.err(); err != nil {
		return u, err
	}

	if u.scrapeBefore, err = scrapeNetwork(n); err != nil {
		return u, err
	}
	if u.diskBefore, err = measureDisk(n); err != nil {
		return u, err
	}
	if u.cpuBefore, err = readCPU(n); err != nil {
		return u, err
	}
	if u.sat, err = d.runSaturation(size.SatN); err != nil {
		return u, err
	}
	if u.cpuAfter, err = readCPU(n); err != nil {
		return u, err
	}
	if u.scrapeAfter, err = scrapeNetwork(n); err != nil {
		return u, err
	}
	if u.diskAfter, err = measureDisk(n); err != nil {
		return u, err
	}
	u.tally.add(d.gen, u.sat.records)
	_, peerPIDs := n.pids()
	for _, pid := range peerPIDs {
		rss, err := procPeakRSS(pid)
		if err != nil {
			return u, err
		}
		u.peakRSS += rss / float64(len(peerPIDs))
	}
	if err := u.tally.err(); err != nil {
		return u, err
	}

	if withCatchup {
		if u.catchup, err = n.startCatchup(u.tally.heights, phaseLimit); err != nil {
			return u, err
		}
	}

	if u.blocks, err = checkStreams(n, u.tally); err != nil {
		return u, err
	}
	if err := n.shutdown(); err != nil {
		return u, fmt.Errorf("shutting the network down: %w", err)
	}
	return u, nil
}

// checkStreams pulls every process's block stream of every channel and
// checks they tell the same story: identical header-hash chains from the
// orderer and every peer, identical per-transaction validation codes on
// every peer, every transaction committed, and as many transactions as the
// driver submitted. It returns the orderer's streams.
func checkStreams(n *network, t *tally) (map[string][]*ledger.Block, error) {
	sources := []node{n.orderer, n.peers[0].node, n.peers[1].node}
	if n.catchup != nil {
		sources = append(sources, *n.catchup)
	}
	type pulled struct {
		blocks []*ledger.Block
		err    error
	}
	ordererBlocks := make(map[string][]*ledger.Block, len(n.w.Channels))
	total := 0
	for _, ch := range n.w.Channels {
		height := t.heights[ch]
		// The streams are pulled concurrently: each serving process
		// encodes while the driver decodes another's.
		got := make([]pulled, len(sources))
		var wg sync.WaitGroup
		for i, src := range sources {
			wg.Add(1)
			go func(i int, src node) {
				defer wg.Done()
				got[i].blocks, got[i].err = pullBlocks(src.addr, ch, height, phaseLimit)
			}(i, src)
		}
		wg.Wait()
		for i, g := range got {
			if g.err != nil {
				return nil, fmt.Errorf("pulling %s from %s: %w", ch, sources[i].name, g.err)
			}
		}
		ref := got[0].blocks
		if err := verifyChain(ch, ref); err != nil {
			return nil, fmt.Errorf("orderer: %w", err)
		}
		for i := 1; i < len(got); i++ {
			if err := sameChain(ref, got[i].blocks); err != nil {
				return nil, fmt.Errorf("%s vs orderer on %s: %w", sources[i].name, ch, err)
			}
			if err := allCommitted(got[i].blocks); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", sources[i].name, ch, err)
			}
			if i > 1 {
				if err := sameCodes(got[1].blocks, got[i].blocks); err != nil {
					return nil, fmt.Errorf("%s vs %s on %s: %w", sources[i].name, sources[1].name, ch, err)
				}
			}
		}
		for _, b := range ref {
			total += len(b.Transactions)
		}
		ordererBlocks[ch] = ref
	}
	if total != t.submitted {
		return nil, fmt.Errorf("the orderer's streams hold %d transactions, the driver submitted %d", total, t.submitted)
	}
	return ordererBlocks, nil
}

// verifyChain checks one stream's hash chain — numbering, prev-hash links
// and each block's data hash — by appending it to a fresh chain of the
// channel.
func verifyChain(channelID string, blocks []*ledger.Block) error {
	chain := ledger.NewChain(channelID)
	for _, b := range blocks {
		if err := chain.Append(b); err != nil {
			return err
		}
	}
	return nil
}

// sameChain checks two streams carry the same header-hash chain.
func sameChain(a, b []*ledger.Block) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d blocks vs %d", len(b), len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i].HeaderHash(), b[i].HeaderHash()) {
			return fmt.Errorf("header hash of block %d differs", a[i].Header.Number)
		}
	}
	return nil
}

// sameCodes checks two peers validated every transaction alike.
func sameCodes(a, b []*ledger.Block) error {
	for i := range a {
		ca, cb := a[i].Metadata.ValidationCodes, b[i].Metadata.ValidationCodes
		if len(ca) != len(cb) {
			return fmt.Errorf("block %d: %d validation codes vs %d", a[i].Header.Number, len(ca), len(cb))
		}
		for j := range ca {
			if ca[j] != cb[j] {
				return fmt.Errorf("block %d tx %d: %s vs %s", a[i].Header.Number, j, ca[j], cb[j])
			}
		}
	}
	return nil
}

// allCommitted checks a peer's stream carries a committed code for every
// transaction.
func allCommitted(blocks []*ledger.Block) error {
	for _, b := range blocks {
		codes := b.Metadata.ValidationCodes
		if len(codes) != len(b.Transactions) {
			return fmt.Errorf("block %d: %d validation codes for %d transactions", b.Header.Number, len(codes), len(b.Transactions))
		}
		for j, c := range codes {
			if !c.Committed() {
				return fmt.Errorf("block %d tx %d: %s", b.Header.Number, j, c)
			}
		}
	}
	return nil
}

// readingCount is the length of a merged hot document's reading list.
func readingCount(doc []byte) (int, error) {
	var parsed struct {
		Readings []json.RawMessage `json:"temperatureReadings1"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return 0, err
	}
	return len(parsed.Readings), nil
}
