package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"fabriccrdt/internal/client"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/wire"
)

// caSeed is cmd/fabricnet's default -ca-seed: every process derives the
// same organization roots from it.
const caSeed = "fabricnet-demo"

// readyTimeout bounds every wait for a child to report an address.
const readyTimeout = 30 * time.Second

// remoteEndorser adapts a wire connection to the SDK's Endorser interface.
type remoteEndorser struct{ c *wire.Client }

func (r remoteEndorser) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	return r.c.Endorse(prop)
}
func (r remoteEndorser) MSPID() string { return r.c.Info().MSPID }
func (r remoteEndorser) Name() string  { return r.c.Info().Name }

// node is one spawned orderer or peer with the addresses it reported.
type node struct {
	proc        *proc
	name        string
	addr        string // wire endpoint
	metricsAddr string // /metrics endpoint
	traceFile   string // -trace-out target, traced runs only
}

// servingPeer is a peer the driver submits through: one connection, used
// for both Endorse (via client.Prepare) and the gateway Submit.
type servingPeer struct {
	node
	conn    *wire.Client
	clients map[string]*client.Client // one SDK client per channel
}

// network is one orderer and two serving peers as real processes on
// loopback TCP, plus the driver's two connections.
type network struct {
	ps     *procSet
	w      workloadSpec
	traced bool
	dir    string

	orderer  node
	peers    [2]*servingPeer
	catchup  *node // the third peer, once the catch-up phase has run
	setupDur time.Duration
}

var servingOrgs = [2]string{"Org1", "Org2"}

// startNetwork spawns the orderer, waits for its address, spawns both
// peers against it, waits for theirs and dials both. Its duration — first
// exec to both connections dialled — is the setup_s metric.
func startNetwork(ps *procSet, w workloadSpec, traced bool, signer *cryptoid.Signer) (*network, error) {
	dir, err := ps.tempDir("net-")
	if err != nil {
		return nil, err
	}
	n := &network{ps: ps, w: w, traced: traced, dir: dir}
	start := time.Now()

	if n.orderer, err = n.spawnNode("orderer", ordererArgs(w)); err != nil {
		return nil, err
	}
	if err := n.orderer.awaitReady(); err != nil {
		return nil, err
	}
	// Both peers start at once; each is waited for in turn.
	var pending [2]node
	for i, org := range servingOrgs {
		pending[i], err = n.spawnNode(org+".peer0", peerArgs(w, org, n.orderer.addr, filepath.Join(dir, org)))
		if err != nil {
			return nil, err
		}
	}
	for i := range pending {
		if err := pending[i].awaitReady(); err != nil {
			return nil, err
		}
		conn, err := wire.Dial(pending[i].addr, wire.ClientConfig{})
		if err != nil {
			return nil, fmt.Errorf("dialing %s: %w", pending[i].name, err)
		}
		sp := &servingPeer{node: pending[i], conn: conn, clients: make(map[string]*client.Client, len(w.Channels))}
		for _, ch := range w.Channels {
			sp.clients[ch] = client.New(signer, ch, []client.Endorser{remoteEndorser{c: conn}}, nil)
		}
		n.peers[i] = sp
	}
	n.setupDur = time.Since(start)
	return n, nil
}

// spawnNode starts one process: its role's arguments plus the
// observability flags every node gets — a /metrics listener always (idle
// unless scraped between phases), -trace-out on traced runs only.
func (n *network) spawnNode(name string, args []string) (node, error) {
	nd := node{name: name}
	args = append(args, "-metrics-addr", "127.0.0.1:0")
	if n.traced {
		nd.traceFile = filepath.Join(n.dir, "trace-"+name+".json")
		args = append(args, "-trace-out", nd.traceFile)
	}
	var err error
	nd.proc, err = n.ps.spawn(name, args...)
	return nd, err
}

// awaitReady waits for the node's wire and metrics addresses.
func (nd *node) awaitReady() error {
	var err error
	if nd.addr, err = nd.proc.waitAddr("its listen address", listenRE, readyTimeout); err != nil {
		return err
	}
	nd.metricsAddr, err = nd.proc.waitAddr("its metrics address", metricsRE, readyTimeout)
	return err
}

// startCatchup spawns the fresh third peer against the running orderer and
// times it from exec until it has printed the commit of each channel's
// final block.
func (n *network) startCatchup(heights map[string]uint64, timeout time.Duration) (time.Duration, error) {
	nd, err := n.spawnNode("Org3.peer0", peerArgs(n.w, "Org3", n.orderer.addr, filepath.Join(n.dir, "Org3")))
	if err != nil {
		return 0, err
	}
	n.catchup = &nd
	deadline := time.Now().Add(timeout)
	var last time.Time
	for _, ch := range n.w.Channels {
		want := fmt.Sprintf(" committed block %d on %s", heights[ch], ch)
		hit, err := nd.proc.waitLine(fmt.Sprintf("the commit of block %d on %s", heights[ch], ch),
			func(line string) bool { return strings.HasSuffix(line, want) }, time.Until(deadline))
		if err != nil {
			return 0, fmt.Errorf("catch-up phase stuck: %w\n%s", err, n.ps.tails())
		}
		if hit.at.After(last) {
			last = hit.at
		}
	}
	if err := nd.awaitReady(); err != nil {
		return 0, err
	}
	return last.Sub(nd.proc.started), nil
}

// flagLines is the exact command line of every process of this network.
func (n *network) flagLines() []string {
	nodes := []node{n.orderer, n.peers[0].node, n.peers[1].node}
	if n.catchup != nil {
		nodes = append(nodes, *n.catchup)
	}
	lines := make([]string, 0, len(nodes))
	for _, nd := range nodes {
		lines = append(lines, "fabricnet "+strings.Join(nd.proc.args, " "))
	}
	return lines
}

// pids lists the orderer and the two serving peers: the processes whose
// CPU and memory the end-to-end metrics account.
func (n *network) pids() (orderer int, peers [2]int) {
	return n.orderer.proc.cmd.Process.Pid,
		[2]int{n.peers[0].proc.cmd.Process.Pid, n.peers[1].proc.cmd.Process.Pid}
}

// shutdown closes the connections and stops every process cleanly — peers
// first, then the orderer they are connected to. On traced runs a clean
// shutdown is what writes the trace files.
func (n *network) shutdown() error {
	var procs []*proc
	if n.catchup != nil {
		procs = append(procs, n.catchup.proc)
	}
	for _, sp := range n.peers {
		if sp != nil {
			sp.conn.Close()
			procs = append(procs, sp.proc)
		}
	}
	procs = append(procs, n.orderer.proc)
	var errs []error
	for _, p := range procs {
		// Each is reaped before the next is signalled.
		if err := p.stop(10 * time.Second); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
	}
	return errors.Join(errs...)
}

// pullBlocks reads blocks 1..upto of one channel from a node's Deliver
// stream.
func pullBlocks(addr, channelID string, upto uint64, timeout time.Duration) ([]*ledger.Block, error) {
	conn, err := wire.Dial(addr, wire.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stream, err := conn.Deliver(channelID, 1)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	// Recv has no deadline of its own: closing the stream is what
	// unblocks it when the serving side stalls.
	timer := time.AfterFunc(timeout, func() { stream.Close() })
	defer timer.Stop()
	blocks := make([]*ledger.Block, 0, upto)
	for uint64(len(blocks)) < upto {
		b, err := stream.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("deliver stream of %s on %s ended at block %d of %d (timeout %v)", addr, channelID, len(blocks), upto, timeout)
			}
			return nil, err
		}
		if want := uint64(len(blocks)) + 1; b.Header.Number != want {
			return nil, fmt.Errorf("deliver stream of %s on %s: got block %d, want %d", addr, channelID, b.Header.Number, want)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}
