// Multi-process end-to-end tests: the fabricnet binary is built once and
// spawned as real OS processes — orderer, peers, client — talking over the
// wire transport on loopback TCP. This is the ISSUE 7 acceptance path: the
// demo commits blocks over real sockets, and a SIGKILLed peer restarted
// against its data directory recovers to byte-identical world state with
// the peer that never died.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
)

// binPath is the fabricnet binary TestMain builds for every test here.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fabricnet-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "fabricnet")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building fabricnet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one spawned fabricnet process with its combined output captured
// for pattern waits.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd

	mu  sync.Mutex
	out bytes.Buffer

	exited  chan struct{}
	exitErr error
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startProc spawns the fabricnet binary with the given arguments. The
// process is hard-killed at test cleanup if still running.
func startProc(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, exited: make(chan struct{})}
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = p
	cmd.Stderr = p
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	p.cmd = cmd
	go func() {
		p.exitErr = cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-p.exited:
		default:
			p.cmd.Process.Kill()
			<-p.exited
		}
	})
	return p
}

// waitFor polls the process output until the pattern matches, returning the
// submatches.
func (p *proc) waitFor(pattern string, timeout time.Duration) []string {
	p.t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(p.output()); m != nil {
			return m
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s: timed out waiting for %q; output so far:\n%s", p.name, pattern, p.output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// term sends SIGTERM and asserts a clean (exit 0) shutdown.
func (p *proc) term(timeout time.Duration) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatalf("signaling %s: %v", p.name, err)
	}
	select {
	case <-p.exited:
		if p.exitErr != nil {
			p.t.Fatalf("%s exited with %v; output:\n%s", p.name, p.exitErr, p.output())
		}
	case <-time.After(timeout):
		p.t.Fatalf("%s did not exit after SIGTERM; output:\n%s", p.name, p.output())
	}
}

// kill SIGKILLs the process mid-flight (no clean shutdown).
func (p *proc) kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("killing %s: %v", p.name, err)
	}
	<-p.exited
}

// waitExit waits for the process to end on its own and asserts exit 0.
func (p *proc) waitExit(timeout time.Duration) {
	p.t.Helper()
	select {
	case <-p.exited:
		if p.exitErr != nil {
			p.t.Fatalf("%s exited with %v; output:\n%s", p.name, p.exitErr, p.output())
		}
	case <-time.After(timeout):
		p.t.Fatalf("%s still running; output:\n%s", p.name, p.output())
	}
}

const (
	listenRE  = `listening on (\S+)`
	heightRE  = `client saw height (\d+) on channel1`
	metricsRE = `metrics on (\S+)`
)

// startOrderer spawns the ordering process and returns its address.
func startOrderer(t *testing.T, extra ...string) (*proc, string) {
	t.Helper()
	args := append([]string{
		"-role", "orderer", "-listen", "127.0.0.1:0",
		"-channels", "channel1", "-block", "5", "-batch-timeout", "150ms"}, extra...)
	p := startProc(t, "orderer", args...)
	return p, p.waitFor(listenRE, 15*time.Second)[1]
}

// startPeer spawns one peer process and returns its address.
func startPeer(t *testing.T, name, org, ordAddr string, extra ...string) (*proc, string) {
	t.Helper()
	args := append([]string{
		"-role", "peer", "-name", name, "-org", org,
		"-listen", "127.0.0.1:0", "-connect", ordAddr,
		"-channels", "channel1"}, extra...)
	p := startProc(t, name, args...)
	return p, p.waitFor(listenRE, 15*time.Second)[1]
}

// clientSubmit submits txs transactions through the given peer addresses
// and returns the final block height the client observed.
func clientSubmit(t *testing.T, peerAddrs string, txs int, extra ...string) uint64 {
	t.Helper()
	h, _ := clientCommit(t, peerAddrs, txs, extra...)
	return h
}

// clientCommit is clientSubmit also returning how many transactions the
// client saw committed.
func clientCommit(t *testing.T, peerAddrs string, txs int, extra ...string) (height uint64, committed int) {
	t.Helper()
	args := append([]string{
		"-role", "client", "-org", "Org1", "-connect", peerAddrs,
		"-channels", "channel1", "-txs", strconv.Itoa(txs)}, extra...)
	cl := startProc(t, "client", args...)
	cl.waitExit(60 * time.Second)
	m := cl.waitFor(heightRE, time.Second)
	h, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil || h == 0 {
		t.Fatalf("client reported height %q (err %v); output:\n%s", m[1], err, cl.output())
	}
	committed, err = strconv.Atoi(cl.waitFor(`client done: (\d+)/\d+ committed`, time.Second)[1])
	if err != nil {
		t.Fatal(err)
	}
	return h, committed
}

// TestMultiProcessSmoke is the CI smoke: spawn orderer + peer binaries,
// submit transactions over real sockets, assert the peer commits them,
// scrape the peer's live /metrics endpoint, and shut everything down
// cleanly.
func TestMultiProcessSmoke(t *testing.T) {
	ord, ordAddr := startOrderer(t)
	pr, peerAddr := startPeer(t, "Org1.peer0", "Org1", ordAddr, "-metrics-addr", "127.0.0.1:0")
	metricsAddr := pr.waitFor(metricsRE, 15*time.Second)[1]

	h := clientSubmit(t, peerAddr, 12)
	pr.waitFor(fmt.Sprintf(`committed block %d on channel1`, h), 15*time.Second)

	// Scrape the live peer: the exposition must parse, and the commit-path
	// histograms and wire counters must be present with real samples.
	body := httpGet(t, "http://"+metricsAddr+"/metrics")
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("peer /metrics is malformed: %v\n%s", err, body)
	}
	for _, want := range []string{
		obs.MetricCommitStageSeconds + "_bucket",
		obs.MetricPeerBlockHeight,
		obs.MetricWireFrames,
		obs.MetricHistoryLagBlocks,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("peer /metrics missing %q:\n%s", want, body)
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		httpGet(t, "http://"+metricsAddr+path)
	}

	pr.term(15 * time.Second)
	ord.term(15 * time.Second)
}

// httpGet fetches the URL and fails the test on any error or non-200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, body)
	}
	return body
}

// readTrace parses one process's -trace-out dump back into spans.
func readTrace(t *testing.T, path string) []obs.Span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace file: %v", err)
	}
	spans, err := obs.ParseChromeTrace(data)
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return spans
}

// TestMultiProcessTracePropagation is the ISSUE 8 tracing acceptance test:
// a trace ID minted by the client process must ride the proposal, the
// transaction envelope, and the block across the wire so that the client,
// peer, and orderer processes each record spans under the SAME trace ID —
// and the spans must nest correctly (the peer's gateway.submit encloses its
// peer.commit; clocks are only compared within one process).
func TestMultiProcessTracePropagation(t *testing.T) {
	dir := t.TempDir()
	ordTrace := filepath.Join(dir, "orderer.json")
	peerTrace := filepath.Join(dir, "peer.json")
	clientTrace := filepath.Join(dir, "client.json")

	ord, ordAddr := startOrderer(t, "-trace-out", ordTrace)
	pr, peerAddr := startPeer(t, "Org1.peer0", "Org1", ordAddr, "-trace-out", peerTrace)

	const txs = 5
	h := clientSubmit(t, peerAddr, txs, "-trace-out", clientTrace)
	pr.waitFor(fmt.Sprintf(`committed block %d on channel1`, h), 15*time.Second)

	// Traces are dumped at shutdown; the client already exited inside
	// clientSubmit, the peer and orderer flush on SIGTERM.
	pr.term(15 * time.Second)
	ord.term(15 * time.Second)

	spans := readTrace(t, clientTrace)
	spans = append(spans, readTrace(t, peerTrace)...)
	spans = append(spans, readTrace(t, ordTrace)...)

	byTrace := make(map[string][]obs.Span)
	for _, sp := range spans {
		if sp.TraceID != "" {
			byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		}
	}
	if len(byTrace) != txs {
		t.Fatalf("got %d distinct trace IDs, want %d (one per transaction)", len(byTrace), txs)
	}

	for id, trace := range byTrace {
		procs := make(map[string]bool)
		named := make(map[string]obs.Span)
		for _, sp := range trace {
			procs[sp.Process] = true
			named[sp.Name] = sp
		}
		if len(procs) < 3 {
			t.Fatalf("trace %s spans only processes %v, want client + peer + orderer", id, procs)
		}
		for span, proc := range map[string]string{
			"client.prepare": "wire-client",
			"peer.endorse":   "Org1.peer0",
			"gateway.submit": "Org1.peer0",
			"peer.commit":    "Org1.peer0",
			"orderer.order":  "orderer",
		} {
			sp, ok := named[span]
			if !ok {
				t.Fatalf("trace %s has no %s span; got %+v", id, span, trace)
			}
			if sp.Process != proc {
				t.Fatalf("trace %s: %s recorded by process %q, want %q", id, span, sp.Process, proc)
			}
		}
		// Nesting within the peer process: the gateway holds the Submit
		// stream open until the commit event, so its span must enclose the
		// commit span.
		gw, cm := named["gateway.submit"], named["peer.commit"]
		if gw.Start.After(cm.Start) || gw.Start.Add(gw.Dur).Before(cm.Start.Add(cm.Dur)) {
			t.Fatalf("trace %s: gateway.submit [%v +%v] does not enclose peer.commit [%v +%v]",
				id, gw.Start, gw.Dur, cm.Start, cm.Dur)
		}
	}
}

// TestMultiProcessKillRestartStateIdentical is the fault-injection
// integration test (ISSUE 7 satellite): a peer SIGKILLed mid-deployment and
// restarted over the same data directory must resume from its durable
// checkpoint, catch up over the wire, and end with world state
// byte-identical to the peer that was never interrupted.
func TestMultiProcessKillRestartStateIdentical(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "peerA")
	dirB := filepath.Join(t.TempDir(), "peerB")
	ord, ordAddr := startOrderer(t)
	peerA, addrA := startPeer(t, "Org1.peer0", "Org1", ordAddr, "-backend", "disk", "-datadir", dirA)
	peerB, _ := startPeer(t, "Org2.peer0", "Org2", ordAddr, "-backend", "disk", "-datadir", dirB)

	// Round 1: both peers commit.
	h1 := clientSubmit(t, addrA, 10)
	peerA.waitFor(fmt.Sprintf(`committed block %d on channel1`, h1), 15*time.Second)
	peerB.waitFor(fmt.Sprintf(`committed block %d on channel1`, h1), 15*time.Second)

	// Kill peer B without ceremony and keep committing while it is down.
	peerB.kill()
	h2 := clientSubmit(t, addrA, 10)
	if h2 <= h1 {
		t.Fatalf("no progress while peer was down: height %d then %d", h1, h2)
	}

	// Restart B over the same data directory: it must resume from its
	// checkpoint (not block 1) and catch up to the tail over the wire.
	peerB2, _ := startPeer(t, "Org2.peer0", "Org2", ordAddr, "-backend", "disk", "-datadir", dirB)
	peerB2.waitFor(`resumed channel1 at height (\d+)`, 15*time.Second)
	peerB2.waitFor(fmt.Sprintf(`committed block %d on channel1`, h2), 20*time.Second)

	// Post-restart liveness: new blocks still reach the restarted peer.
	h3 := clientSubmit(t, addrA, 5)
	peerB2.waitFor(fmt.Sprintf(`committed block %d on channel1`, h3), 20*time.Second)

	peerA.term(15 * time.Second)
	peerB2.term(15 * time.Second)
	ord.term(15 * time.Second)

	// Reopen both data directories in-process and compare: equal heights,
	// byte-identical world state (the interrupted peer vs the one that
	// never died).
	a := reopenPeer(t, "Org1.peer0", "Org1", dirA)
	defer a.Close()
	b := reopenPeer(t, "Org2.peer0", "Org2", dirB)
	defer b.Close()
	ha, err := a.HeightOn("channel1")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.HeightOn("channel1")
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb || ha < h3 {
		t.Fatalf("reopened heights diverge: uninterrupted %d, killed-and-restarted %d (want >= %d)", ha, hb, h3)
	}
	if !reflect.DeepEqual(a.DB().GetRange("", ""), b.DB().GetRange("", "")) {
		t.Fatal("killed-and-restarted peer's world state differs from the uninterrupted peer")
	}
}

// reopenPeer opens a finished disk-backend peer process's data directory
// in-process so the test can read its recovered world state.
func reopenPeer(t *testing.T, name, org, dir string) *peer.Peer {
	t.Helper()
	return reopenPeerOn(t, name, org, dir, peer.BackendDisk)
}

// reopenPeerOn is reopenPeer for a peer that ran on the given backend.
func reopenPeerOn(t *testing.T, name, org, dir, backend string) *peer.Peer {
	t.Helper()
	msp := cryptoid.NewMSP()
	for _, o := range demoOrgs {
		msp.AddOrg(o, cryptoid.NewDeterministicCA(o, "fabricnet-demo").PublicKey())
	}
	signer, err := cryptoid.NewDeterministicCA(org, "fabricnet-demo").Issue(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name: name, MSPID: org, Channels: []string{"channel1"}, EnableCRDT: true,
		Committer: peer.CommitterConfig{Backend: backend, DataDir: dir},
	}, signer, msp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMultiProcessOrdererRestart: an orderer with -datadir keeps each
// channel's block log on disk. SIGKILLed and restarted on the same address
// and data directory, it resumes at its log's tip — new blocks continue
// the chain instead of restarting at block 1 — and a peer that joins only
// after the restart catches up from block 1 through it.
func TestMultiProcessOrdererRestart(t *testing.T) {
	dirO := filepath.Join(t.TempDir(), "orderer")
	dirs := map[string]string{
		"Org1.peer0": filepath.Join(t.TempDir(), "peerA"),
		"Org2.peer0": filepath.Join(t.TempDir(), "peerB"),
		"Org3.peer0": filepath.Join(t.TempDir(), "peerC"),
	}
	lsm := func(name string) []string { return []string{"-backend", "lsm", "-datadir", dirs[name]} }
	ord, ordAddr := startOrderer(t, "-datadir", dirO)
	peerA, addrA := startPeer(t, "Org1.peer0", "Org1", ordAddr, lsm("Org1.peer0")...)
	peerB, _ := startPeer(t, "Org2.peer0", "Org2", ordAddr, lsm("Org2.peer0")...)

	h1, c1 := clientCommit(t, addrA, 10)
	peerA.waitFor(fmt.Sprintf(`committed block %d on channel1`, h1), 15*time.Second)
	peerB.waitFor(fmt.Sprintf(`committed block %d on channel1`, h1), 15*time.Second)

	// Kill the orderer and restart it over its log: it resumes at the tip.
	ord.kill()
	ord2, _ := startOrderer(t, "-listen", ordAddr, "-datadir", dirO)
	tip, err := strconv.ParseUint(ord2.waitFor(`orderer resumed channel1 at block (\d+)`, 15*time.Second)[1], 10, 64)
	if err != nil || tip < h1 {
		t.Fatalf("restarted orderer resumed at block %d (err %v), want >= %d", tip, err, h1)
	}

	// The second batch continues the chain from the pre-kill tip.
	h2, c2 := clientCommit(t, addrA, 10)
	if h2 <= tip {
		t.Fatalf("second batch ended at block %d, not past the pre-kill tip %d", h2, tip)
	}
	peerA.waitFor(fmt.Sprintf(`committed block %d on channel1`, tip+1), 15*time.Second)
	peerB.waitFor(fmt.Sprintf(`committed block %d on channel1`, h2), 15*time.Second)

	// A fresh peer started after the restart catches up from block 1.
	peerC, _ := startPeer(t, "Org3.peer0", "Org3", ordAddr, lsm("Org3.peer0")...)
	peerC.waitFor(`committed block 1 on channel1`, 15*time.Second)
	peerC.waitFor(fmt.Sprintf(`committed block %d on channel1`, h2), 20*time.Second)

	for _, p := range []*proc{peerA, peerB, peerC, ord2} {
		p.term(15 * time.Second)
	}

	// Every chain verifies, the world states are byte-identical, and every
	// transaction the client saw committed is on the chain exactly once.
	var ref *peer.Peer
	for _, name := range []string{"Org1.peer0", "Org2.peer0", "Org3.peer0"} {
		p := reopenPeerOn(t, name, name[:4], dirs[name], peer.BackendLSM)
		defer p.Close()
		chain, err := p.ChainOn("channel1")
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := make(map[string]bool)
		for n := uint64(1); n < chain.Height(); n++ {
			b, err := chain.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			for i, tx := range b.Transactions {
				if !b.Metadata.ValidationCodes[i].Committed() {
					continue
				}
				if seen[tx.ID] {
					t.Fatalf("%s: transaction %s committed twice", name, tx.ID)
				}
				seen[tx.ID] = true
			}
		}
		if len(seen) != c1+c2 {
			t.Fatalf("%s: %d committed transactions on the chain, the client saw %d", name, len(seen), c1+c2)
		}
		if ref == nil {
			ref = p
			continue
		}
		if ref.Height() != p.Height() {
			t.Fatalf("%s at height %d, %s at %d", ref.Name(), ref.Height(), name, p.Height())
		}
		if !reflect.DeepEqual(ref.DB().GetRange("", ""), p.DB().GetRange("", "")) {
			t.Fatalf("%s world state differs from %s", name, ref.Name())
		}
	}
}

// TestRoleFlagValidation: a flag a role would silently ignore, and a load
// value the run would misreport or divide by, is refused — the process
// exits non-zero, names the reason, and creates nothing.
func TestRoleFlagValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	orderer := []string{"-role", "orderer", "-listen", "127.0.0.1:0"}
	client := []string{"-role", "client", "-connect", "127.0.0.1:1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append(orderer, "-backend", "lsm", "-datadir", dir), "-backend is not used by -role orderer"},
		{append(orderer, "-state-cache", "8"), "-state-cache is not used by -role orderer"},
		{append(orderer, "-fsync"), "-fsync on -role orderer requires -datadir"},
		{append(client, "-backend", "disk", "-datadir", dir), "-backend is not used by -role client"},
		{append(client, "-state-cache", "4"), "-state-cache is not used by -role client"},
		{append(client, "-conflict", "150"), "-conflict must be a percentage from 0 to 100 (got 150)"},
		{[]string{"-clients", "0"}, "-clients must be >= 1 (got 0)"},
		{[]string{"-rate", "0"}, "-rate must be > 0 tx/s (got 0)"},
	} {
		out, err := exec.Command(binPath, tc.args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v: exited 0; output:\n%s", tc.args, out)
		}
		if !bytes.Contains(out, []byte(tc.want)) {
			t.Fatalf("%v: output does not say %q:\n%s", tc.args, tc.want, out)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused command created %s (stat: %v)", dir, err)
	}
}
