// Public-API tests: everything the examples rely on must work through the
// facade, without touching internal packages (except test fixtures).
package fabriccrdt_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fabriccrdt"
)

// newLiveNet builds a small started network with the IoT chaincode
// installed, for the public-API tests.
func newLiveNet(tb testing.TB, enableCRDT bool) (*fabriccrdt.Network, func()) {
	tb.Helper()
	cfg := fabriccrdt.PaperTopology(10, enableCRDT)
	cfg.Orderer.BatchTimeout = 100 * time.Millisecond
	net, err := fabriccrdt.NewNetwork(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cc := fabriccrdt.ChaincodeFunc(func(stub fabriccrdt.ChaincodeStub) error {
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
	if err := net.InstallChaincode("iot", cc, "OR('Org1.member','Org2.member','Org3.member')"); err != nil {
		tb.Fatal(err)
	}
	net.Start()
	return net, func() { net.Stop() }
}

func TestPublicAPIEndToEnd(t *testing.T) {
	net, cleanup := newLiveNet(t, true)
	defer cleanup()
	cli, err := net.NewClient("Org1", "app", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	code, err := cli.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev"), []byte("21"))
	if err != nil {
		t.Fatal(err)
	}
	if code != fabriccrdt.CodeCRDTMerged {
		t.Fatalf("code = %v", code)
	}
	doc, err := fabriccrdt.LoadMergedDoc(net.Peers()[0], "dev")
	if err != nil || doc == nil {
		t.Fatalf("LoadMergedDoc = %v, %v", doc, err)
	}
	want := map[string]any{"tempReadings": []any{map[string]any{"temperature": "21"}}}
	if got := doc.ToJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged doc = %v, want %v", got, want)
	}
}

// TestPublicJSONDocAPI: a JSONDoc built through the facade merges JSON
// values in order, and its state decodes into a fresh JSONDoc that renders
// and keeps merging the same.
func TestPublicJSONDocAPI(t *testing.T) {
	doc := fabriccrdt.NewJSONDoc()
	for _, delta := range []string{
		`{"greeting":"hello","items":["x"]}`,
		`{"items":["y"],"nested":{"value":1.5}}`,
	} {
		var v any
		if err := json.Unmarshal([]byte(delta), &v); err != nil {
			t.Fatal(err)
		}
		if err := doc.MergeJSON(v); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]any{"greeting": "hello", "items": []any{"x", "y"}, "nested": map[string]any{"value": 1.5}}
	if !reflect.DeepEqual(doc.ToJSON(), want) {
		t.Fatalf("doc = %v, want %v", doc.ToJSON(), want)
	}
	state, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := fabriccrdt.NewJSONDoc()
	if err := restored.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*fabriccrdt.JSONDoc{doc, restored} {
		if err := d.MergeJSON(map[string]any{"items": []any{"z"}}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(doc.ToJSON(), restored.ToJSON()) {
		t.Fatalf("restored doc diverged: %v vs %v", doc.ToJSON(), restored.ToJSON())
	}
}

func TestPublicCRDTRegistry(t *testing.T) {
	reg := fabriccrdt.NewCRDTRegistry()
	types := reg.Types()
	if len(types) < 7 {
		t.Fatalf("registry has %d types: %v", len(types), types)
	}
	c, err := reg.New("g-counter")
	if err != nil {
		t.Fatal(err)
	}
	gc, ok := c.(*fabriccrdt.GCounter)
	if !ok {
		t.Fatalf("g-counter factory returned %T", c)
	}
	gc.Increment("r1", 5)
	if gc.Sum() != 5 {
		t.Fatalf("sum = %d", gc.Sum())
	}
}

func TestPublicStockFabricMode(t *testing.T) {
	net, cleanup := newLiveNet(t, false)
	defer cleanup()
	cli, err := net.NewClient("Org1", "app", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential (non-conflicting) submissions all succeed on stock Fabric.
	for i := 0; i < 3; i++ {
		code, err := cli.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte(fmt.Sprintf("d%d", i)), []byte("20"))
		if err != nil {
			t.Fatal(err)
		}
		if code != fabriccrdt.CodeValid {
			t.Fatalf("code = %v, want VALID", code)
		}
	}
}
