// Package fabricnet assembles complete in-process networks — organizations
// with CAs, peers, and one ordering service per channel — in the paper's
// topology (§7.2: three organizations, two peers each, one orderer, one
// channel) and wires the live delivery pipeline: each channel's orderer
// appends the blocks it cuts to the channel's block log, and one committer
// pipeline per (peer, channel) pair reads it (peer.CommitPipeline —
// preparing each block while its predecessor is in the serialized commit
// stage).
//
// Channels are the unit of sharding (Config.Channels): every channel has
// its own ordering service, block numbering, and per-peer commit runtime,
// so N channels order and commit fully in parallel with zero cross-channel
// coordination (DESIGN.md §6). The default remains the paper's single
// "channel1".
//
// The deliver loops need no restart special-casing: a peer whose world
// state already covers a delivered block (its channel height at or above
// the block number — a disk-backed peer rebuilt over its data directory)
// fast-forwards it inside CommitBlockOn instead of re-validating it.
//
// Delivery flows through the transport.Transport interface: each
// channel's block log is a transport.History the orderer appends to
// directly, the network's transport.Node serves Deliver and Broadcast from
// those histories and services, and every (peer, channel) pair runs
// transport.DeliverToPeer against it — the SAME loop a remote peer process
// runs against a wire client. The log retains every block from its base,
// so blocks cut before Start reach the peers once it runs.
// Config.TransportWrap interposes middleware (transport.Chaos in the
// fault-injection tests) between the loop and the node. Transport failures
// the loop heals by reconnecting are recorded separately
// (TransportRetries); only fatal errors — commit failures, close failures
// — reach Err.
package fabricnet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/client"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// OrgConfig describes one organization.
type OrgConfig struct {
	MSPID string
	Peers int
}

// Config describes a network.
type Config struct {
	// Channels lists every channel the network runs — each gets its own
	// ordering service and block log and, on every peer, its own commit
	// pipeline and state backend. The first entry is the default channel
	// that single-channel APIs (Orderer, NewClient) bind to. Names must be
	// unique and non-empty; empty means [channel.DefaultChannel].
	Channels []string
	Orgs     []OrgConfig
	Orderer  orderer.Config
	// EnableCRDT makes every peer a FabricCRDT peer; off = stock Fabric.
	EnableCRDT bool
	// Committer selects every peer's statedb backend and its durability.
	// With a durable Backend (peer.BackendDisk or peer.BackendLSM),
	// Committer.DataDir is the shared root directory; each peer persists
	// under DataDir/<peer-name> (and each channel under
	// DataDir/<peer-name>/<channel-ID>), so rebuilding a network over the
	// same root restores every peer's world state and per-channel resume
	// heights.
	Committer peer.CommitterConfig
	// TransportWrap, when set, interposes middleware between each
	// (peer, channel) deliver loop and the network's transport — the
	// fault-injection tests wrap transport.Chaos here to sever, drop,
	// duplicate and corrupt a live peer's block stream.
	TransportWrap func(peerName, channelID string, tr transport.Transport) transport.Transport
	// DeliverMaxRetries bounds each deliver loop's CONSECUTIVE healed
	// reconnects before it gives up fatally; 0 retries until the channel
	// shuts down cleanly.
	DeliverMaxRetries int
}

// channelIDs resolves the configured channel list; a config naming no
// channel at all gets the single default channel (matching peer.New).
func (c Config) channelIDs() []string {
	if len(c.Channels) > 0 {
		return c.Channels
	}
	return []string{channel.DefaultChannel}
}

// PaperConfig returns the paper's fixed evaluation topology (§7.2) with the
// given block size: 3 organizations × 2 peers, one channel.
func PaperConfig(maxBlockTxs int, enableCRDT bool) Config {
	return Config{
		Orgs: []OrgConfig{
			{MSPID: "Org1", Peers: 2},
			{MSPID: "Org2", Peers: 2},
			{MSPID: "Org3", Peers: 2},
		},
		Orderer:    orderer.DefaultConfig(maxBlockTxs),
		EnableCRDT: enableCRDT,
	}
}

// Network is a running in-process Fabric/FabricCRDT network.
type Network struct {
	cfg   Config
	cas   map[string]*cryptoid.CA
	msp   *cryptoid.MSP
	peers []*peer.Peer
	// channels is the validated channel list; channels[0] is the default.
	// Each channel has one ordering service appending to one block log,
	// which the node serves Deliver from.
	channels []string
	services map[string]*orderer.Service
	node     *transport.Node
	reg      *obs.Registry

	mu      sync.Mutex
	started bool
	stopped bool
	wg      sync.WaitGroup // deliver loops
	errMu   sync.Mutex
	errs    []error
	retries []error // transport failures healed by reconnecting
}

// New builds the network: CAs, peer identities, peers, and one ordering
// service per channel.
func New(cfg Config) (*Network, error) {
	ids := append([]string(nil), cfg.channelIDs()...)
	if err := channel.ValidateIDs(ids); err != nil {
		return nil, fmt.Errorf("fabricnet: %w", err)
	}
	if len(cfg.Orgs) == 0 {
		return nil, errors.New("fabricnet: no organizations")
	}
	n := &Network{
		cfg:      cfg,
		cas:      make(map[string]*cryptoid.CA, len(cfg.Orgs)),
		msp:      cryptoid.NewMSP(),
		channels: ids,
		services: make(map[string]*orderer.Service, len(ids)),
		reg:      obs.NewRegistry(),
	}
	for _, org := range cfg.Orgs {
		ca, err := cryptoid.NewCA(org.MSPID)
		if err != nil {
			return nil, fmt.Errorf("fabricnet: creating CA for %s: %w", org.MSPID, err)
		}
		n.cas[org.MSPID] = ca
		n.msp.AddOrg(org.MSPID, ca.PublicKey())
	}
	for _, org := range cfg.Orgs {
		for i := 0; i < org.Peers; i++ {
			name := fmt.Sprintf("%s.peer%d", org.MSPID, i)
			signer, err := n.cas[org.MSPID].Issue(name)
			if err != nil {
				return nil, fmt.Errorf("fabricnet: issuing identity for %s: %w", name, err)
			}
			committer := cfg.Committer
			durable := committer.Backend == peer.BackendDisk || committer.Backend == peer.BackendLSM
			if durable && committer.DataDir != "" {
				// Each peer owns a private store under the shared root —
				// one DataDir knob configures the whole network.
				committer.DataDir = filepath.Join(cfg.Committer.DataDir, name)
			}
			p, err := peer.New(peer.Config{
				Name:       name,
				MSPID:      org.MSPID,
				Channels:   ids,
				EnableCRDT: cfg.EnableCRDT,
				Committer:  committer,
			}, signer, n.msp)
			if err != nil {
				n.closePeers()
				return nil, fmt.Errorf("fabricnet: %w", err)
			}
			n.peers = append(n.peers, p)
		}
	}
	// Each channel's ordering service chains onto the peers' common resume
	// point for that channel: the genesis block for a fresh network, or the
	// durable chain checkpoint when every peer was rebuilt over an existing
	// data directory. Peers resuming one channel at different heights
	// cannot be reconciled here (the block log holds no history to catch
	// stragglers up with), so that is an error. Channels resume
	// independently — one channel checkpointed at block 40 and another at
	// block 7 is the normal shape of a sharded network.
	histories := make(map[string]*transport.History, len(ids))
	broadcasts := make(map[string]transport.Broadcaster, len(ids))
	for _, id := range ids {
		refChain, err := n.peers[0].ChainOn(id)
		if err != nil {
			n.closePeers()
			return nil, fmt.Errorf("fabricnet: %w", err)
		}
		lastNum, lastHash := refChain.LastRef()
		for _, p := range n.peers[1:] {
			c, err := p.ChainOn(id)
			if err != nil {
				n.closePeers()
				return nil, fmt.Errorf("fabricnet: %w", err)
			}
			num, hash := c.LastRef()
			if num != lastNum || !bytes.Equal(hash, lastHash) {
				n.closePeers()
				return nil, fmt.Errorf("fabricnet: peers resume channel %s from diverging histories (%s at block %d hash %x, %s at block %d hash %x): remove the data directory or sync the stores",
					id, n.peers[0].Name(), lastNum, lastHash, p.Name(), num, hash)
			}
		}
		// The channel's block log begins at the first block the orderer
		// will cut; everything below is already inside every peer's resume
		// point. The log is the channel's only fan-out: the orderer appends
		// to it and every deliver stream reads it through its own cursor.
		h := transport.NewHistory(lastNum + 1)
		svc := orderer.NewServiceAt(cfg.Orderer, lastNum, lastHash, h)
		svc.SetLabel(id)
		histories[id] = h
		n.services[id] = svc
		broadcasts[id] = svc
		// Delivery-plane gauges: the log's cursors are the network's only
		// unbounded delivery buffer; read live at scrape time (zero cost on
		// the commit path).
		n.reg.GaugeFunc(obs.MetricHistoryLagBlocks,
			func() float64 { return float64(h.MaxLag()) }, "channel", id)
		n.reg.GaugeFunc(obs.MetricHistoryStreams,
			func() float64 { return float64(h.Streams()) }, "channel", id)
	}
	n.node = &transport.Node{
		NodeInfo:   transport.Info{Name: "fabricnet", Channels: n.Channels()},
		Histories:  histories,
		Broadcasts: broadcasts,
	}
	return n, nil
}

// Node returns the network's in-process transport endpoint: Deliver served
// from the per-channel histories, Broadcast routed to the per-channel
// ordering services. Tests serve it over a wire.Server to put the whole
// network behind real sockets.
func (n *Network) Node() *transport.Node { return n.node }

// Metrics returns the network's own registry (delivery-plane gauges). Most
// callers want Registries, the full exposition set.
func (n *Network) Metrics() *obs.Registry { return n.reg }

// Registries returns every registry an exposition of this network should
// merge: the process-global Default registry (wire/transport counters),
// the network's delivery-plane gauges, and each peer's commit-path
// registry. Hand the slice to obs.Render or obs.NewServer.
func (n *Network) Registries() []*obs.Registry {
	regs := []*obs.Registry{obs.Default(), n.reg}
	for _, p := range n.peers {
		regs = append(regs, p.Metrics())
	}
	return regs
}

// Peers returns all peers (ordered by organization, then index).
func (n *Network) Peers() []*peer.Peer { return n.peers }

// MSP returns the network's shared membership provider — tests and external
// processes joining the network's trust domain register their org roots
// here.
func (n *Network) MSP() *cryptoid.MSP { return n.msp }

// Peer returns the named peer.
func (n *Network) Peer(name string) (*peer.Peer, error) {
	for _, p := range n.peers {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fabricnet: unknown peer %q", name)
}

// AnchorPeer returns one peer per organization (the .peer0 of each).
func (n *Network) AnchorPeer(mspID string) (*peer.Peer, error) {
	return n.Peer(mspID + ".peer0")
}

// Channels returns the network's channel IDs in configuration order; the
// first is the default channel.
func (n *Network) Channels() []string { return append([]string(nil), n.channels...) }

// DefaultChannel returns the channel single-channel APIs bind to.
func (n *Network) DefaultChannel() string { return n.channels[0] }

// Orderer returns the default channel's ordering service.
func (n *Network) Orderer() *orderer.Service { return n.services[n.channels[0]] }

// OrdererOn returns one channel's ordering service.
func (n *Network) OrdererOn(channelID string) (*orderer.Service, error) {
	svc, ok := n.services[channelID]
	if !ok {
		return nil, fmt.Errorf("fabricnet: unknown channel %q (channels: %v)", channelID, n.channels)
	}
	return svc, nil
}

// InstallChaincode installs a chaincode on every peer with the given
// endorsement policy expression; it is invocable on every channel.
func (n *Network) InstallChaincode(name string, cc chaincode.Chaincode, policyExpr string) error {
	policy, err := endorse.Parse(policyExpr)
	if err != nil {
		return fmt.Errorf("fabricnet: installing %q: %w", name, err)
	}
	for _, p := range n.peers {
		p.InstallChaincode(name, cc, policy)
	}
	return nil
}

// InstallChaincodeOn installs a chaincode on ONE channel of every peer:
// proposals and commits naming it on any other channel are rejected
// (ErrUnknownChaincode at endorsement, CodeEndorsementFailure at commit).
func (n *Network) InstallChaincodeOn(channelID, name string, cc chaincode.Chaincode, policyExpr string) error {
	policy, err := endorse.Parse(policyExpr)
	if err != nil {
		return fmt.Errorf("fabricnet: installing %q: %w", name, err)
	}
	for _, p := range n.peers {
		if err := p.InstallChaincodeOn(channelID, name, cc, policy); err != nil {
			return fmt.Errorf("fabricnet: installing %q: %w", name, err)
		}
	}
	return nil
}

// Start launches the delivery plane: one transport.DeliverToPeer loop per
// (peer, channel) pair reading the channel's block log through the
// network's Node, each with its own commit pipeline — channels deliver and
// commit independently, so a slow channel never stalls the others; each
// pipeline decodes and endorsement-validates the next delivered block
// while the current one is in the serialized commit stage (DESIGN.md §7).
// Blocks the orderer cut before Start are still in the log and are
// delivered first.
//
// Failure discipline (the Err/TransportRetries split): a transport failure
// — severed stream, sequence gap, lost frame — is healed by the loop
// itself, which reconnects with backoff and resumes at the peer's height
// (re-delivered blocks fast-forward inside CommitBlockOn); each healed
// failure is recorded under TransportRetries. A COMMIT failure is an
// application decision: it ends that pair's loop, is recorded under Err,
// and the channel's block log keeps flowing for everyone else, so an
// abandoned consumer never applies backpressure to delivery (each reader
// has its own History cursor).
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	for _, id := range n.channels {
		for _, p := range n.peers {
			var tr transport.Transport = n.node
			if n.cfg.TransportWrap != nil {
				tr = n.cfg.TransportWrap(p.Name(), id, tr)
			}
			dcfg := transport.DeliverConfig{
				ChannelID:  id,
				MaxRetries: n.cfg.DeliverMaxRetries,
			}
			n.wg.Add(1)
			go func(p *peer.Peer, id string, tr transport.Transport, dcfg transport.DeliverConfig) {
				defer n.wg.Done()
				dcfg.OnRetry = func(err error) {
					n.recordRetry(fmt.Errorf("peer %s: channel %s: %w", p.Name(), id, err))
				}
				if err := transport.DeliverToPeer(tr, p, dcfg, nil); err != nil {
					n.recordError(fmt.Errorf("peer %s: channel %s: %w", p.Name(), id, err))
				}
			}(p, id, tr, dcfg)
		}
	}
}

func (n *Network) recordError(err error) {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	n.errs = append(n.errs, err)
}

func (n *Network) recordRetry(err error) {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	n.retries = append(n.retries, err)
}

// Err aggregates every FATAL failure — commit errors on any (peer, channel)
// pair, backend close errors — with errors.Join; nil when the run was
// clean. errors.Is/As see through the join, and the
// message lists every cause one per line. Transport failures that deliver
// loops healed by reconnecting are NOT here (a healed medium is not a
// failed run) — see TransportRetries.
func (n *Network) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return errors.Join(n.errs...)
}

// TransportRetries returns every transport failure the deliver loops healed
// by reconnecting — severed streams, sequence gaps — in occurrence order.
// Diagnostics, not failures: a run with retries and a nil Err committed
// everything.
func (n *Network) TransportRetries() []error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return append([]error(nil), n.retries...)
}

// Stop stops every channel's orderer — each flushes its pending
// transactions into its block log and closes it — waits for every deliver
// loop to finish the log's tail, then closes the peers: commit waits still
// open are released and state backends flushed.
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	for _, id := range n.channels {
		n.services[id].Stop()
	}
	n.wg.Wait()
	n.closePeers()
}

// closePeers releases every peer's state backends, recording the first
// failure (a disk backend surfaces deferred write errors on close).
func (n *Network) closePeers() {
	for _, p := range n.peers {
		if err := p.Close(); err != nil {
			n.recordError(fmt.Errorf("peer %s: closing state backend: %w", p.Name(), err))
		}
	}
}

// NewClient issues a fresh client identity bound to the default channel.
// See NewClientOn.
func (n *Network) NewClient(mspID, name string, endorserOrgs []string) (*client.Client, error) {
	return n.NewClientOn(n.DefaultChannel(), mspID, name, endorserOrgs)
}

// NewClientOn issues a fresh client identity from the organization's CA,
// bound to one channel, and wires it to endorsers satisfying the given
// policy organizations. The client waits for commits on the
// organization's anchor peer.
func (n *Network) NewClientOn(channelID, mspID, name string, endorserOrgs []string) (*client.Client, error) {
	svc, err := n.OrdererOn(channelID)
	if err != nil {
		return nil, err
	}
	ca, ok := n.cas[mspID]
	if !ok {
		return nil, fmt.Errorf("fabricnet: unknown org %q", mspID)
	}
	signer, err := ca.Issue(name)
	if err != nil {
		return nil, err
	}
	var endorsers []client.Endorser
	for _, org := range endorserOrgs {
		p, err := n.AnchorPeer(org)
		if err != nil {
			return nil, err
		}
		endorsers = append(endorsers, p)
	}
	anchor, err := n.AnchorPeer(mspID)
	if err != nil {
		return nil, err
	}
	c := client.New(signer, channelID, endorsers, svc)
	c.AttachCommitter(anchor)
	return c, nil
}

// NewMultiClient issues one client per listed channel (all channels when
// none are named) under a shared identity name and returns them bundled as
// a multi-channel client with per-channel and round-robin submission.
func (n *Network) NewMultiClient(mspID, name string, endorserOrgs []string, channelIDs ...string) (*client.MultiClient, error) {
	if len(channelIDs) == 0 {
		channelIDs = n.Channels()
	}
	clients := make([]*client.Client, 0, len(channelIDs))
	for _, id := range channelIDs {
		c, err := n.NewClientOn(id, mspID, fmt.Sprintf("%s@%s", name, id), endorserOrgs)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	return client.NewMultiClient(clients...)
}
