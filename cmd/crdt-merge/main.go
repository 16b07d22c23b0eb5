// Command crdt-merge merges JSON documents with the JSON CRDT from the
// command line — a direct view of what a FabricCRDT peer does to the CRDT
// transactions of one block (paper Listings 1–2).
//
// Usage:
//
//	crdt-merge '{"readings":[{"t":"15"}]}' '{"readings":[{"t":"20"}]}'
//	cat deltas.jsonl | crdt-merge        # one JSON object per line
//	crdt-merge -state '{"a":["x"]}'      # also print the persisted CRDT state
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fabriccrdt"
)

func main() {
	showState := flag.Bool("state", false, "also print the document's CRDT state, exactly as a peer persists it")
	flag.Parse()

	doc := fabriccrdt.NewJSONDoc()
	deltas := flag.Args()
	if len(deltas) == 0 {
		scanner := bufio.NewScanner(os.Stdin)
		scanner.Buffer(make([]byte, 1024*1024), 16*1024*1024)
		for scanner.Scan() {
			if line := scanner.Text(); line != "" {
				deltas = append(deltas, line)
			}
		}
		if err := scanner.Err(); err != nil {
			fatal(err)
		}
	}
	if len(deltas) == 0 {
		fatal(fmt.Errorf("no documents to merge (pass JSON objects as arguments or on stdin)"))
	}
	for i, raw := range deltas {
		var v any
		if err := json.Unmarshal([]byte(raw), &v); err != nil {
			fatal(fmt.Errorf("document %d is not valid JSON: %w", i+1, err))
		}
		if err := doc.MergeJSON(v); err != nil {
			fatal(fmt.Errorf("merging document %d: %w", i+1, err))
		}
	}
	out, err := json.MarshalIndent(doc.ToJSON(), "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if *showState {
		state, err := doc.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "--- CRDT state ---")
		fmt.Fprintln(os.Stderr, string(state))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crdt-merge:", err)
	os.Exit(1)
}
