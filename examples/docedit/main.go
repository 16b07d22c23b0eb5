// Collaborative document editing — the paper's §6 flagship use case for a
// CRDT-enabled blockchain. Two authors publish concurrent edits to one
// document as CRDT transactions, the way FabricCRDT clients edit: each edit
// is a JSON object written with PutCRDT, and the peers merge the edits into
// one blockchain-backed document in block order, losing none.
//
//	go run ./examples/docedit
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"fabriccrdt"
)

func main() {
	cfg := fabriccrdt.PaperTopology(25, true)
	cfg.Orderer.BatchTimeout = 200 * time.Millisecond
	net, err := fabriccrdt.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	editCC := fabriccrdt.ChaincodeFunc(func(stub fabriccrdt.ChaincodeStub) error {
		_, params := stub.Function()
		docKey, editJSON := params[0], params[1]
		if _, err := stub.GetState(docKey); err != nil {
			return err
		}
		return stub.PutCRDT(docKey, []byte(editJSON))
	})
	if err := net.InstallChaincode("docs", editCC, "OR('Org1.member','Org2.member')"); err != nil {
		log.Fatal(err)
	}
	net.Start()
	defer net.Stop()

	alice, err := net.NewClient("Org1", "alice", []string{"Org1"})
	if err != nil {
		log.Fatal(err)
	}
	bob, err := net.NewClient("Org2", "bob", []string{"Org2"})
	if err != nil {
		log.Fatal(err)
	}

	edits := []struct {
		cli  *fabriccrdt.Client
		edit string
	}{
		{alice, `{"sections":[{"heading":"Introduction","author":"alice"}]}`},
		{bob, `{"sections":[{"heading":"Evaluation","author":"bob"}]}`},
		{alice, `{"sections":[{"heading":"Design","author":"alice"}]}`},
	}
	done := make(chan error, len(edits))
	for _, e := range edits {
		go func(cli *fabriccrdt.Client, edit string) {
			_, err := cli.SubmitAndWait(10*time.Second, "docs", []byte("edit"), []byte("paper-draft"), []byte(edit))
			done <- err
		}(e.cli, e.edit)
	}
	for range edits {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
	net.Stop()

	vv, ok := net.Peers()[0].DB().Get("paper-draft")
	if !ok {
		log.Fatal("document missing")
	}
	var doc map[string]any
	if err := json.Unmarshal(vv.Value, &doc); err != nil {
		log.Fatal(err)
	}
	sections := doc["sections"].([]any)
	fmt.Printf("blockchain document has %d sections (no edit lost):\n", len(sections))
	for _, s := range sections {
		sec := s.(map[string]any)
		fmt.Printf("  %-14s by %s\n", sec["heading"], sec["author"])
	}
}
