// Quickstart: bring up a FabricCRDT network, install a chaincode, submit
// two CONFLICTING transactions concurrently, and watch both commit with
// their updates merged — the paper's Listing 1 → Listing 2 example, live.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"fabriccrdt"
)

func main() {
	// A FabricCRDT network in the paper's topology: 3 orgs × 2 peers,
	// one orderer, one channel, 25 transactions per block.
	net, err := fabriccrdt.NewNetwork(fabriccrdt.PaperTopology(25, true))
	if err != nil {
		log.Fatal(err)
	}
	// Shorten the batch timeout so the demo commits promptly.
	cfg := fabriccrdt.PaperTopology(25, true)
	cfg.Orderer.BatchTimeout = 200 * time.Millisecond
	if net, err = fabriccrdt.NewNetwork(cfg); err != nil {
		log.Fatal(err)
	}

	// The chaincode: read the device document, append one temperature
	// reading as a CRDT delta. PutCRDT is the one-line difference from a
	// standard Fabric chaincode.
	sensor := fabriccrdt.ChaincodeFunc(func(stub fabriccrdt.ChaincodeStub) error {
		_, params := stub.Function()
		device, temperature := params[0], params[1]
		if _, err := stub.GetState(device); err != nil {
			return err
		}
		delta, err := json.Marshal(map[string]any{
			"tempReadings": []any{map[string]any{"temperature": temperature}},
		})
		if err != nil {
			return err
		}
		return stub.PutCRDT(device, delta)
	})
	if err := net.InstallChaincode("sensor", sensor, "OR('Org1.member','Org2.member','Org3.member')"); err != nil {
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

	// Submit two conflicting updates to the same key at the same time.
	// On stock Fabric one of these would fail MVCC validation.
	var wg sync.WaitGroup
	for _, sub := range []struct {
		who  *fabriccrdt.Client
		name string
		temp string
	}{
		{alice, "alice", "15"},
		{bob, "bob", "20"},
	} {
		wg.Add(1)
		go func(c *fabriccrdt.Client, name, temp string) {
			defer wg.Done()
			code, err := c.SubmitAndWait(10*time.Second, "sensor",
				[]byte("record"), []byte("Device1"), []byte(temp))
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Printf("%s's update (temperature %s) committed: %s\n", name, temp, code)
		}(sub.who, sub.name, sub.temp)
	}
	wg.Wait()
	net.Stop()

	// Every peer converged to the same merged document with BOTH readings.
	for _, p := range net.Peers() {
		vv, ok := p.DB().Get("Device1")
		if !ok {
			log.Fatalf("%s: Device1 missing", p.Name())
		}
		fmt.Printf("%-12s %s\n", p.Name(), vv.Value)
	}

	// The merge metadata is inspectable too.
	doc, err := fabriccrdt.LoadMergedDoc(net.Peers()[0], "Device1")
	if err != nil {
		log.Fatal(err)
	}
	if doc != nil {
		readings, _ := doc.ToJSON()["tempReadings"].([]any)
		fmt.Printf("CRDT document: %d readings merged\n", len(readings))
	}
}
