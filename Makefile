GO ?= go

.PHONY: ci fmt vet lint build test race bench bench-compare demo-persist test-wire smoke-multiproc fuzz-smoke

ci: fmt vet lint build race

fmt:
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:"; echo "$$unformatted"; exit 1; \
	fi

# bench/ is its own module (the benchmark, bench/README.md): vet, lint and
# test cover it alongside the main module.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Project-invariant analyzers (stdlib-only, see docs/ANALYZERS.md):
# deadlock, determinism, metricnames (the former scripts/check_metrics.sh)
# and wireerr. Non-zero exit on any unsuppressed finding.
lint:
	$(GO) run ./cmd/fabriccrdt-lint ./...
	cd bench && $(GO) run fabriccrdt/cmd/fabriccrdt-lint .

build:
	$(GO) build ./...

# vet and lint are part of the tier-1 gate: test and race refuse to run
# on code that does not pass both.
test: vet lint
	$(GO) test ./...
	$(GO) -C bench test ./...

race: vet lint
	$(GO) test -race ./...
	$(GO) -C bench test -race ./...

# Wire-transport gate: the transport conformance suite against BOTH
# implementations (in-process Node and TCP wire client/server) under
# -race, Chaos fault modes included; the network-level wire + Err-split
# regressions; and the multi-process tests (real orderer/peer/client
# processes over loopback sockets, kill -9 recovery to byte-identical
# state).
test-wire: vet
	$(GO) test -race ./internal/transport/... ./internal/wire/...
	$(GO) test -race -run 'TestWire|TestDeliverLoopHealsSeveredStream|TestCommitErrorIsFatalNotRetried' ./internal/fabricnet
	$(GO) test -run TestMultiProcess ./cmd/fabricnet

# Just the multi-process smoke: spawn orderer + peer binaries, submit
# transactions over real sockets, assert the committed height, and scrape
# the live peer's /metrics + /healthz (failing on malformed exposition).
# CI runs this as its own step so a wire regression is named in the job
# log.
smoke-multiproc:
	$(GO) test -run TestMultiProcessSmoke -v ./cmd/fabricnet

# The benchmark (BENCHMARK.json, bench/README.md): real orderer/peer
# processes over loopback TCP on all four workloads, end-to-end metrics
# plus the per-layer rows. OUT names the result file.
OUT ?= .bench_build/result.json
bench:
	bash bench/run.sh -out $(OUT)

# Diff two result files: make bench-compare A=before.json B=after.json
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# Short-budget coverage-guided fuzzing of the binary decoders — the
# wire-frame decoder and the LSM sorted-run block decoder — enough for CI
# to catch a decoder regression without a long fuzz run.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzRunDecode -fuzztime 10s ./internal/statedb

# One short live-network run with durable peers and the block store on,
# against a throwaway datadir — proves the -backend disk -persist-blocks
# path end to end (CI runs this).
demo-persist:
	$(GO) run ./cmd/fabricnet -txs 60 -rate 600 -block 10 -clients 2 \
		-backend disk -datadir $$(mktemp -d) -persist-blocks
