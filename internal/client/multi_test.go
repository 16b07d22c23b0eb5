package client

import (
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
)

func TestNewMultiClientValidation(t *testing.T) {
	if _, err := NewMultiClient(); err == nil {
		t.Fatal("empty multi-client accepted")
	}
	signer := testSigner(t)
	a := New(signer, "ch1", nil, &fakeOrderer{})
	b := New(signer, "ch1", nil, &fakeOrderer{})
	if _, err := NewMultiClient(a, b); err == nil {
		t.Fatal("two clients on one channel accepted")
	}
}

func TestMultiClientRoutesByChannel(t *testing.T) {
	orderers := map[string]*fakeOrderer{"ch1": {verdict: ledger.CodeValid}, "ch2": {verdict: ledger.CodeValid}}
	endorser := &fakeEndorser{name: "p0", resp: respWith(rwset.ReadWriteSet{})}
	m, err := NewMultiClient(
		newTestClient(t, "ch1", orderers["ch1"], endorser),
		newTestClient(t, "ch2", orderers["ch2"], endorser),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Channels(); len(got) != 2 || got[0] != "ch1" || got[1] != "ch2" {
		t.Fatalf("Channels = %v", got)
	}
	if _, err := m.SubmitAndWait(time.Second, "ch2", "cc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(orderers["ch2"].txs) != 1 || len(orderers["ch1"].txs) != 0 {
		t.Fatalf("named submit landed on the wrong orderer: ch1=%d ch2=%d", len(orderers["ch1"].txs), len(orderers["ch2"].txs))
	}
	if orderers["ch2"].txs[0].ChannelID != "ch2" {
		t.Fatalf("tx channel = %q", orderers["ch2"].txs[0].ChannelID)
	}
	if _, err := m.SubmitAndWait(time.Second, "nope", "cc"); err == nil {
		t.Fatal("unknown channel accepted")
	}

	// Round-robin alternates channels deterministically.
	seen := make(map[string]int)
	for i := 0; i < 6; i++ {
		ch, _, err := m.SubmitAndWaitRoundRobin(time.Second, "cc", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		seen[ch]++
	}
	if seen["ch1"] != 3 || seen["ch2"] != 3 {
		t.Fatalf("round-robin split = %v, want 3/3", seen)
	}
}
