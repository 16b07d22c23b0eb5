package fabricnet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/workload"
)

// iotCC is the paper's evaluation chaincode: read the device document,
// append a reading, write it back as a CRDT delta.
func iotCC() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		device, reading := params[0], params[1]
		if _, err := stub.GetState(device); err != nil {
			return err
		}
		delta, err := json.Marshal(map[string]any{
			"tempReadings": []any{map[string]any{"temperature": reading}},
		})
		if err != nil {
			return err
		}
		return stub.PutCRDT(device, delta)
	})
}

const testPolicy = "OR('Org1.member','Org2.member','Org3.member')"

func newNet(t *testing.T, blockSize int, enableCRDT bool) *Network {
	t.Helper()
	cfg := PaperConfig(blockSize, enableCRDT)
	cfg.Orderer.BatchTimeout = 100 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkTopology(t *testing.T) {
	n := newNet(t, 25, true)
	if len(n.Peers()) != 6 {
		t.Fatalf("peers = %d, want 6 (3 orgs x 2)", len(n.Peers()))
	}
	if _, err := n.Peer("Org2.peer1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Peer("nope"); err == nil {
		t.Fatal("unknown peer resolved")
	}
	if _, err := n.AnchorPeer("Org3"); err != nil {
		t.Fatal(err)
	}
	if n.Orderer() == nil {
		t.Fatal("orderer missing")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Channels: []string{"ch"}}); err == nil {
		t.Fatal("config without orgs accepted")
	}
}

func TestInstallChaincodeBadPolicy(t *testing.T) {
	n := newNet(t, 25, true)
	if err := n.InstallChaincode("x", iotCC(), "AND("); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestFabricCRDTCommitsAllConflicting is the live-mode core claim: every
// conflicting transaction commits, and all six peers converge to the same
// document containing all updates.
func TestFabricCRDTCommitsAllConflicting(t *testing.T) {
	n := newNet(t, 10, true)
	n.Start()
	defer n.Stop()

	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", i)))
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d failed: %v", i, err)
		}
	}
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	// All peers converge to identical state with all 40 readings.
	var want []byte
	for _, p := range n.Peers() {
		vv, ok := p.DB().Get("dev1")
		if !ok {
			t.Fatalf("peer %s missing dev1", p.Name())
		}
		if want == nil {
			want = vv.Value
			var doc map[string]any
			if err := json.Unmarshal(vv.Value, &doc); err != nil {
				t.Fatal(err)
			}
			if readings := doc["tempReadings"].([]any); len(readings) != total {
				t.Fatalf("readings = %d, want %d (no update loss)", len(readings), total)
			}
			continue
		}
		if string(vv.Value) != string(want) {
			t.Fatalf("peer %s diverged", p.Name())
		}
	}
	// Every peer's chain verifies.
	for _, p := range n.Peers() {
		if err := p.Chain().Verify(); err != nil {
			t.Fatalf("peer %s chain: %v", p.Name(), err)
		}
	}
}

// TestStockFabricFailsConflicting drives the same conflicting workload
// through a stock Fabric network: most transactions fail with MVCC
// conflicts (paper Figure 3(c): a handful of successes out of thousands).
func TestStockFabricFailsConflicting(t *testing.T) {
	n := newNet(t, 10, false)
	n.Start()
	defer n.Stop()

	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	var wg sync.WaitGroup
	codes := make([]ledger.ValidationCode, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", i)))
			codes[i] = code
		}(i)
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	valid, conflicted := 0, 0
	for _, code := range codes {
		switch code {
		case ledger.CodeValid:
			valid++
		case ledger.CodeMVCCConflict:
			conflicted++
		}
	}
	if valid == 0 {
		t.Fatal("no transaction committed at all")
	}
	if conflicted == 0 {
		t.Fatal("no MVCC conflicts under an all-conflicting workload")
	}
	if valid+conflicted != total {
		t.Fatalf("valid %d + conflicted %d != %d", valid, conflicted, total)
	}
	t.Logf("stock fabric: %d valid, %d MVCC conflicts", valid, conflicted)
}

// TestIoTWorkloadOnNetwork drives the paper's workload generator
// (internal/workload) through the live network at 0% and 100% conflicting
// transactions, with FabricCRDT and with stock Fabric: FabricCRDT merges
// every transaction at both settings; stock Fabric commits every one when
// none conflict, and fails some with MVCC conflicts when all do (the end
// points of the paper's Figure 7).
func TestIoTWorkloadOnNetwork(t *testing.T) {
	const total = 40
	for _, tc := range []struct {
		name       string
		enableCRDT bool
		conflict   int
		// want lists the codes the run must end in: every transaction gets
		// one of them, and each of them occurs.
		want []ledger.ValidationCode
	}{
		{"FabricCRDT/conflict0", true, 0, []ledger.ValidationCode{ledger.CodeCRDTMerged}},
		{"FabricCRDT/conflict100", true, 100, []ledger.ValidationCode{ledger.CodeCRDTMerged}},
		{"Fabric/conflict0", false, 0, []ledger.ValidationCode{ledger.CodeValid}},
		{"Fabric/conflict100", false, 100, []ledger.ValidationCode{ledger.CodeValid, ledger.CodeMVCCConflict}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := workload.NewIoT(workload.IoTParams{ConflictPct: tc.conflict})
			cfg := PaperConfig(10, tc.enableCRDT)
			cfg.Orderer.BatchTimeout = 100 * time.Millisecond
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InstallChaincode("iot", gen.Chaincode(), testPolicy); err != nil {
				t.Fatal(err)
			}
			n.Start()
			defer n.Stop()
			c, err := n.NewClient("Org1", "client0", []string{"Org1"})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			codes := make([]ledger.ValidationCode, total)
			for i := range codes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					codes[i], _ = c.SubmitAndWait(10*time.Second, "iot", workload.SpecArgs(i)...)
				}(i)
			}
			wg.Wait()
			n.Stop()
			if err := n.Err(); err != nil {
				t.Fatal(err)
			}
			count := make(map[ledger.ValidationCode]int)
			for _, code := range codes {
				count[code]++
			}
			matched := 0
			for _, code := range tc.want {
				if count[code] == 0 {
					t.Fatalf("codes = %v: no %v", count, code)
				}
				matched += count[code]
			}
			if matched != total {
				t.Fatalf("codes = %v, want only %v over %d transactions", count, tc.want, total)
			}
			if tc.enableCRDT && tc.conflict == 100 {
				checkHotReadings(t, n, gen.HotKeys()[0], total)
			}
		})
	}
}

// checkHotReadings asserts that every peer holds the same hot-key document
// and that it carries want readings: the blocks of the run (at most 10
// transactions each) extend one document, none replaces it.
func checkHotReadings(t *testing.T, n *Network, key string, want int) {
	t.Helper()
	var first []byte
	for _, p := range n.Peers() {
		vv, ok := p.DB().Get(key)
		if !ok {
			t.Fatalf("peer %s misses %s", p.Name(), key)
		}
		if first == nil {
			first = vv.Value
			var doc struct {
				Readings []any `json:"temperatureReadings1"`
			}
			if err := json.Unmarshal(vv.Value, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Readings) != want {
				t.Fatalf("%s holds %d readings, want %d", key, len(doc.Readings), want)
			}
		} else if string(vv.Value) != string(first) {
			t.Fatalf("peer %s diverged on %s", p.Name(), key)
		}
	}
}

// TestMixedCRDTAndPlainTransactions commits CRDT and non-CRDT transactions
// through the same blocks (paper Figure 2).
func TestMixedCRDTAndPlainTransactions(t *testing.T) {
	n := newNet(t, 10, true)
	plainCC := chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		return stub.PutState("plain/"+params[0], []byte(params[1]))
	})
	if err := n.InstallChaincode("plain", plainCC, testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	c, err := n.NewClient("Org2", "client0", []string{"Org2"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, errs[i] = c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("devM"), []byte("21"))
			} else {
				_, errs[i] = c.SubmitAndWait(10*time.Second, "plain", []byte("put"), []byte(fmt.Sprintf("k%d", i)), []byte("v"))
			}
		}(i)
	}
	wg.Wait()
	n.Stop()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	p := n.Peers()[0]
	if _, ok := p.DB().Get("devM"); !ok {
		t.Fatal("CRDT key missing")
	}
	if _, ok := p.DB().Get("plain/k1"); !ok {
		t.Fatal("plain key missing")
	}
}

// TestMultiOrgEndorsement uses an AND policy across two orgs.
func TestMultiOrgEndorsement(t *testing.T) {
	n := newNet(t, 5, true)
	if err := n.InstallChaincode("iot2", iotCC(), "AND('Org1.member','Org2.member')"); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	c, err := n.NewClient("Org1", "client0", []string{"Org1", "Org2"})
	if err != nil {
		t.Fatal(err)
	}
	code, err := c.SubmitAndWait(10*time.Second, "iot2", []byte("record"), []byte("devA"), []byte("17"))
	if err != nil {
		t.Fatal(err)
	}
	if code != ledger.CodeCRDTMerged {
		t.Fatalf("code = %v", code)
	}

	// Under-endorsed: only Org1 signs, policy demands both.
	c2, err := n.NewClient("Org1", "client1", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	code, err = c2.SubmitAndWait(10*time.Second, "iot2", []byte("record"), []byte("devA"), []byte("18"))
	if err == nil {
		t.Fatal("under-endorsed tx committed")
	}
	if code != ledger.CodeEndorsementFailure {
		t.Fatalf("code = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

// TestDeliveryConvergenceAcrossPeers checks that all peers commit the same
// blocks in the same order even under concurrent submission from several
// clients in different orgs.
func TestDeliveryConvergenceAcrossPeers(t *testing.T) {
	n := newNet(t, 7, true)
	n.Start()
	defer n.Stop()
	var wg sync.WaitGroup
	for orgIdx, org := range []string{"Org1", "Org2", "Org3"} {
		c, err := n.NewClient(org, fmt.Sprintf("client-%s", org), []string{org})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c interface {
			SubmitAndWait(time.Duration, string, ...[]byte) (ledger.ValidationCode, error)
		}, base int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("shared"), []byte(fmt.Sprintf("%d", base+i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(c, orgIdx*100)
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	ref := n.Peers()[0]
	for _, p := range n.Peers()[1:] {
		if got, want := p.Chain().Height(), ref.Chain().Height(); got != want {
			t.Fatalf("peer %s height %d vs %d", p.Name(), got, want)
		}
		vvRef, _ := ref.DB().Get("shared")
		vvP, ok := p.DB().Get("shared")
		if !ok || !reflect.DeepEqual(vvRef, vvP) {
			t.Fatalf("peer %s state diverged", p.Name())
		}
	}
}

// TestOrdererTimeoutPathDelivers covers the low-rate path where blocks are
// cut by timeout rather than size.
func TestOrdererTimeoutPathDelivers(t *testing.T) {
	cfg := PaperConfig(1000, true)
	cfg.Orderer.BatchTimeout = 50 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("d"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("committed in %v — timeout cut cannot have happened", elapsed)
	}
	b, err := n.Peers()[0].Chain().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Metadata.CutReason != string(orderer.CutTimeout) {
		t.Fatalf("cut reason = %q, want timeout", b.Metadata.CutReason)
	}
}

// TestBlockCutBeforeStartIsDelivered: a block the orderer cuts before
// Start must reach every peer once delivery starts. The channel's block log
// retains it from its base whether or not anyone is reading yet; a fan-out
// that only reached live subscribers dropped it, and the history then
// refused every later block as out of sequence.
func TestBlockCutBeforeStartIsDelivered(t *testing.T) {
	cfg := PaperConfig(1, true)
	cfg.Orderer.BatchTimeout = time.Hour
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := n.DefaultChannel()
	if err := n.Orderer().Broadcast(&ledger.Transaction{ID: "before-start", ChannelID: id}); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Orderer().Broadcast(&ledger.Transaction{ID: "after-start", ChannelID: id}); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	for _, p := range n.Peers() {
		if h, err := p.HeightOn(id); err != nil || h != 2 {
			t.Fatalf("peer %s height = %d (err %v), want 2", p.Name(), h, err)
		}
	}
}
