package ledger

import (
	"testing"

	"fabriccrdt/internal/rwset"
)

func makeTx(id string) *Transaction {
	b := rwset.NewBuilder()
	b.AddRead(id+"-key", rwset.Version{BlockNum: 1})
	b.AddWrite(rwset.Write{Key: id + "-key", Value: []byte("v-" + id)})
	return &Transaction{
		ID:        id,
		ChannelID: "ch1",
		Chaincode: "iot",
		RWSet:     b.Build(),
	}
}

func TestTransactionMarshalRoundTrip(t *testing.T) {
	tx := makeTx("t1")
	tx.Endorsements = []Endorsement{{Endorser: []byte("id"), Signature: []byte("sig")}}
	tx.SubmitUnixNano = 12345
	data, err := tx.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTransaction(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != tx.ID || back.Chaincode != tx.Chaincode || back.SubmitUnixNano != 12345 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if !back.RWSet.Equal(tx.RWSet) {
		t.Fatal("rwset lost in round trip")
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	b := &Block{
		Header:       BlockHeader{Number: 1, PrevHash: Genesis("ch1").HeaderHash()},
		Transactions: []*Transaction{makeTx("a"), makeTx("b")},
		Metadata:     BlockMetadata{ValidationCodes: []ValidationCode{CodeValid, CodeMVCCConflict}},
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Number != b.Header.Number || len(back.Transactions) != 2 {
		t.Fatalf("round trip: %+v", back.Header)
	}
	if back.Metadata.ValidationCodes[1] != CodeMVCCConflict {
		t.Fatal("validation codes lost")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalTransaction([]byte("{")); err == nil {
		t.Fatal("want tx decode error")
	}
	if _, err := UnmarshalBlock([]byte("{")); err == nil {
		t.Fatal("want block decode error")
	}
}

func TestEndorsementPayloadIsStable(t *testing.T) {
	tx := makeTx("t1")
	p1, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(p2) {
		t.Fatal("payload not deterministic")
	}
	// Payload must change when the rwset changes.
	tx.RWSet.Writes[0].Value = []byte("other")
	p3, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) == string(p3) {
		t.Fatal("payload insensitive to rwset")
	}
}

func TestValidationCodeStrings(t *testing.T) {
	cases := map[ValidationCode]string{
		CodeNotValidated:       "NOT_VALIDATED",
		CodeValid:              "VALID",
		CodeMVCCConflict:       "MVCC_CONFLICT",
		CodeEndorsementFailure: "ENDORSEMENT_POLICY_FAILURE",
		CodeBadSignature:       "BAD_SIGNATURE",
		CodeDuplicate:          "DUPLICATE_TXID",
		CodeCRDTMerged:         "CRDT_MERGED",
	}
	for code, want := range cases {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), want)
		}
	}
	if !CodeValid.Committed() || !CodeCRDTMerged.Committed() {
		t.Fatal("valid codes must report Committed")
	}
	if CodeMVCCConflict.Committed() || CodeNotValidated.Committed() {
		t.Fatal("failure codes must not report Committed")
	}
}

func TestTxSize(t *testing.T) {
	tx := makeTx("t1")
	if tx.Size() <= 0 {
		t.Fatal("size must be positive")
	}
}

func BenchmarkComputeDataHash(b *testing.B) {
	txs := make([]*Transaction, 100)
	for i := range txs {
		txs[i] = makeTx("tx")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeDataHash(txs); err != nil {
			b.Fatal(err)
		}
	}
}
