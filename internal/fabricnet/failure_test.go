package fabricnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
)

// TestLatePeerSyncsFromRunningPeer exercises the state-transfer path: a
// peer that missed the whole run catches up from another peer and arrives
// at identical state, chain and CRDT documents.
func TestLatePeerSyncsFromRunningPeer(t *testing.T) {
	n := newNet(t, 7, true)
	n.Start()
	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev"), []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Errorf("tx %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	source := n.Peers()[0]

	// A brand-new peer (fresh CA identity, same MSP roots) joins late.
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Issue("Org1.late")
	if err != nil {
		t.Fatal(err)
	}
	late, err := peer.New(peer.Config{
		Name: "Org1.late", MSPID: "Org1", Channels: []string{"channel1"}, EnableCRDT: true,
	}, signer, n.msp)
	if err != nil {
		t.Fatal(err)
	}
	late.InstallChaincode("iot", iotCC(), endorse.MustParse(testPolicy))

	if err := late.SyncFrom(source); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if late.Chain().Height() != source.Chain().Height() {
		t.Fatalf("height %d vs %d", late.Chain().Height(), source.Chain().Height())
	}
	gotVV, ok := late.DB().Get("dev")
	if !ok {
		t.Fatal("late peer missing dev")
	}
	wantVV, _ := source.DB().Get("dev")
	if string(gotVV.Value) != string(wantVV.Value) || gotVV.Version != wantVV.Version {
		t.Fatal("late peer state diverged from source")
	}
	if err := late.Chain().Verify(); err != nil {
		t.Fatalf("late peer chain: %v", err)
	}
	// Re-syncing is a no-op.
	if err := late.SyncFrom(source); err != nil {
		t.Fatalf("re-sync: %v", err)
	}
}

// TestPeerRestartMidStream stops consuming on one peer's world state by
// rebuilding it mid-run, then checks it converges with the rest.
func TestPeerRestartRebuildConverges(t *testing.T) {
	n := newNet(t, 5, true)
	n.Start()
	c, err := n.NewClient("Org2", "client0", []string{"Org2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev"), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	victim := n.Peers()[3]
	before, _ := victim.DB().Get("dev")
	if err := victim.RebuildState(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	after, ok := victim.DB().Get("dev")
	if !ok || string(after.Value) != string(before.Value) {
		t.Fatal("rebuild changed state")
	}
	// And it still matches every other peer.
	for _, p := range n.Peers() {
		vv, _ := p.DB().Get("dev")
		if string(vv.Value) != string(after.Value) {
			t.Fatalf("peer %s diverged after victim rebuild", p.Name())
		}
	}
}

// TestInvalidCRDTDeltaFailsOnlyThatTx injects a transaction whose CRDT
// value is not a JSON object; it must fail with INVALID_CRDT_VALUE while
// the rest of the block commits.
func TestInvalidCRDTDeltaFailsOnlyThatTx(t *testing.T) {
	n := newNet(t, 10, true)
	badCC := chaincodeWriting(`"just a string"`)
	if err := n.InstallChaincode("bad", badCC, testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 2)
	codes := make(chan ledger.ValidationCode, 2)
	go func() {
		code, err := c.SubmitAndWait(10*time.Second, "bad", []byte("x"))
		codes <- code
		results <- err
	}()
	go func() {
		code, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev"), []byte("21"))
		codes <- code
		results <- err
	}()
	var gotInvalid, gotMerged bool
	for i := 0; i < 2; i++ {
		code := <-codes
		<-results
		switch code {
		case ledger.CodeInvalidCRDT:
			gotInvalid = true
		case ledger.CodeCRDTMerged:
			gotMerged = true
		}
	}
	if !gotInvalid || !gotMerged {
		t.Fatalf("invalid=%v merged=%v — want one of each", gotInvalid, gotMerged)
	}
}

// chaincodeWriting returns a chaincode that writes the given raw bytes as a
// CRDT value.
func chaincodeWriting(raw string) chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		return stub.PutCRDT("poison", []byte(raw))
	})
}
