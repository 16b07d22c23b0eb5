// Package workload generates the paper's evaluation workload (§7.1): an IoT
// chaincode storing temperature readings as JSON CRDT documents, with every
// experiment knob from the paper's configuration tables — read/write key
// counts (Table 2), JSON object complexity as keys × nesting depth
// (Table 3, Listing 4), and the percentage of conflicting transactions
// (Table 5). It stands in for the Hyperledger Caliper benchmark driver.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"fabriccrdt/internal/chaincode"
)

// IoTParams configures the generator. Zero fields take paper defaults.
type IoTParams struct {
	// ReadKeys is the number of keys each transaction reads (paper: 1).
	ReadKeys int
	// WriteKeys is the number of keys each transaction writes (paper: 1).
	WriteKeys int
	// JSONKeys is the number of keys per JSON object (paper: 2 — a device
	// ID plus one reading list).
	JSONKeys int
	// NestingDepth is the depth of each key's value from the object root
	// (paper Figure 5 sweeps 2…6; Listing 4 shows "3-3").
	NestingDepth int
	// ConflictPct is the percentage (0–100) of transactions that target
	// the shared hot key set; the rest touch per-transaction unique keys.
	ConflictPct int
	// Channels is the channel mix: transactions are assigned round-robin
	// over this list (Spec(i).Channel), sharding an experiment's load over
	// a multi-channel network. Empty means "single channel" — Channel
	// stays "" and the caller's bound channel applies. Keys are
	// channel-local state, so the hot-key set exists independently per
	// channel and transactions only ever conflict within their channel.
	Channels []string
	// Seed makes the conflict assignment deterministic.
	Seed int64
}

// withDefaults fills the paper's fixed configuration.
func (p IoTParams) withDefaults() IoTParams {
	if p.ReadKeys <= 0 {
		p.ReadKeys = 1
	}
	if p.WriteKeys <= 0 {
		p.WriteKeys = 1
	}
	if p.JSONKeys <= 0 {
		p.JSONKeys = 2
	}
	if p.NestingDepth <= 0 {
		p.NestingDepth = 1
	}
	if p.ConflictPct < 0 {
		p.ConflictPct = 0
	}
	if p.ConflictPct > 100 {
		p.ConflictPct = 100
	}
	return p
}

// Write is one staged CRDT write.
type Write struct {
	Key   string
	Delta []byte
}

// TxSpec is the materialized plan of one transaction.
type TxSpec struct {
	Seq         int
	Conflicting bool
	// Channel is the channel this transaction submits on ("" when the
	// generator has no channel mix configured).
	Channel  string
	ReadKeys []string
	Writes   []Write
}

// IoTGenerator deterministically derives transaction specs from indexes.
type IoTGenerator struct {
	params IoTParams
}

// NewIoT returns a generator for the given parameters.
func NewIoT(params IoTParams) *IoTGenerator {
	return &IoTGenerator{params: params.withDefaults()}
}

// Params returns the effective (defaulted) parameters.
func (g *IoTGenerator) Params() IoTParams { return g.params }

// hotKey returns the j-th shared key all conflicting transactions touch.
func hotKey(j int) string { return fmt.Sprintf("device-hot-%d", j) }

// coldKey returns the j-th key unique to transaction i.
func coldKey(i, j int) string { return fmt.Sprintf("device-%d-%d", i, j) }

// HotKeys returns the shared key set every conflicting transaction reads
// and writes.
func (g *IoTGenerator) HotKeys() []string {
	n := g.params.ReadKeys
	if g.params.WriteKeys > n {
		n = g.params.WriteKeys
	}
	keys := make([]string, n)
	for j := range keys {
		keys[j] = hotKey(j)
	}
	return keys
}

// ChannelFor returns the channel transaction i submits on: round-robin
// over the configured channel mix, or "" when none is configured. The
// assignment is a pure function of (params, i) like the rest of the spec,
// so runs stay reproducible.
func (g *IoTGenerator) ChannelFor(i int) string {
	if len(g.params.Channels) == 0 {
		return ""
	}
	return g.params.Channels[i%len(g.params.Channels)]
}

// Conflicting reports whether transaction i targets the hot keys.
func (g *IoTGenerator) Conflicting(i int) bool {
	switch g.params.ConflictPct {
	case 0:
		return false
	case 100:
		return true
	}
	rng := rand.New(rand.NewSource(g.params.Seed + int64(i)*2654435761))
	return rng.Intn(100) < g.params.ConflictPct
}

// Spec derives transaction i's plan. The same (params, i) always yields the
// same spec, which is what makes runs reproducible.
func (g *IoTGenerator) Spec(i int) TxSpec {
	spec := TxSpec{Seq: i, Conflicting: g.Conflicting(i), Channel: g.ChannelFor(i)}
	key := func(j int) string {
		if spec.Conflicting {
			return hotKey(j)
		}
		return coldKey(i, j)
	}
	spec.ReadKeys = make([]string, g.params.ReadKeys)
	for j := range spec.ReadKeys {
		spec.ReadKeys[j] = key(j)
	}
	spec.Writes = make([]Write, g.params.WriteKeys)
	delta := g.Delta(i)
	for j := range spec.Writes {
		spec.Writes[j] = Write{Key: key(j), Delta: delta}
	}
	return spec
}

// Delta builds transaction i's JSON object: JSONKeys-1 reading lists of the
// configured nesting depth plus a device ID key (matching the paper's
// 2-key default of Listing 3), or, when sweeping complexity, JSONKeys
// reading lists (Listing 4's "k-d" objects).
func (g *IoTGenerator) Delta(i int) []byte {
	obj := make(map[string]any, g.params.JSONKeys)
	reading := strconv.Itoa(10 + i%30)
	if g.params.NestingDepth <= 1 {
		// Paper Listing 3 shape: deviceID + flat reading lists.
		obj["deviceID"] = fmt.Sprintf("dev-%08x", i)
		for k := 1; k < g.params.JSONKeys; k++ {
			obj[fmt.Sprintf("temperatureReadings%d", k)] = []any{
				map[string]any{"temperature": reading},
			}
		}
	} else {
		// Paper Listing 4 shape: JSONKeys keys, each nested to depth.
		for k := 0; k < g.params.JSONKeys; k++ {
			obj[fmt.Sprintf("temperatureRoom%d", k+1)] = nest(g.params.NestingDepth, reading)
		}
	}
	data, err := json.Marshal(obj)
	if err != nil {
		panic("workload: marshaling delta: " + err.Error()) // unreachable: map of scalars
	}
	return data
}

// nest builds a list-of-map chain of the given depth ending in a reading,
// mirroring Listing 4 ("temperatureReading" lists down to a value).
func nest(depth int, reading string) any {
	if depth <= 1 {
		return []any{map[string]any{"temperatureValue": reading}}
	}
	return []any{map[string]any{fmt.Sprintf("reading%d", depth): nest(depth-1, reading)}}
}

// SpecArgs encodes a spec index as chaincode invocation arguments.
func SpecArgs(i int) [][]byte {
	return [][]byte{[]byte("record"), []byte(strconv.Itoa(i))}
}

// Chaincode returns the IoT chaincode: invoked with SpecArgs(i), it reads
// the spec's keys and stages its CRDT writes — the paper's "chaincode that
// receives and stores temperature readings and device identification
// numbers of IoT devices".
func (g *IoTGenerator) Chaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		if len(params) != 1 {
			return fmt.Errorf("workload: want 1 argument (spec index), got %d", len(params))
		}
		i, err := strconv.Atoi(params[0])
		if err != nil {
			return fmt.Errorf("workload: bad spec index %q: %w", params[0], err)
		}
		spec := g.Spec(i)
		for _, k := range spec.ReadKeys {
			if _, err := stub.GetState(k); err != nil {
				return err
			}
		}
		for _, w := range spec.Writes {
			if err := stub.PutCRDT(w.Key, w.Delta); err != nil {
				return err
			}
		}
		return nil
	})
}
