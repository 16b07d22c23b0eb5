GO ?= go

.PHONY: ci fmt vet lint build test race bench bench-compare bench-gate demo-persist test-wire smoke-multiproc fuzz-smoke

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
# implementations (in-process Node and TCP wire client/server, where each
# deliver stream runs on its own connection and the unary calls share
# one) under -race, Chaos fault modes included, plus the wire package's
# torn-frame, slow-consumer and clean-close tests; the network-level
# wire + Err-split regressions; and the multi-process tests (real
# orderer/peer/client processes over loopback sockets, kill -9 recovery
# to byte-identical state).
test-wire: vet
	$(GO) test -race ./internal/transport/... ./internal/wire/...
	$(GO) test -race -run 'TestWire|TestGateway|TestDeliverLoopHealsSeveredStream|TestCommitErrorIsFatalNotRetried' ./internal/fabricnet
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

# The regression gate CI runs on pull requests: check BASE
# out into a worktree, run iot_cold (the cold-key commit path), iot_hot
# (the paper's all-conflicting workload, where the merge path dominates),
# iot_mixed_durable (the merge path reading its state through the LSM
# backend) and fabric_cold (the stock-Fabric control: CRDT off, MVCC
# validation instead of merges) three times per side — alternating which
# side goes first, end-to-end pass only since that is all -compare reads —
# and compare the two result sets with each metric's own bound. Fails on a REGRESSION
# verdict; an unresolved row (run-to-run spread wider than the bound) is
# printed, not failed.
BASE ?= origin/main
GATE := $(CURDIR)/.bench_build/gate
bench-gate:
	@set -e; rm -rf $(GATE); mkdir -p $(GATE); git worktree prune; \
	git worktree add --detach --force $(GATE)/base $(BASE); \
	trap 'git worktree remove --force $(GATE)/base' EXIT; \
	run() { bash $$1/bench/run.sh -workload $$3 -seconds 12 -trace 0 -out $(GATE)/$$2.json; }; \
	for w in iot_cold iot_hot iot_mixed_durable fabric_cold; do \
		run $(GATE)/base base $$w; run . head $$w; \
		run . head $$w; run $(GATE)/base base $$w; \
		run $(GATE)/base base $$w; run . head $$w; \
	done; \
	bash bench/run.sh -compare $(GATE)/base.json $(GATE)/head.json | tee $(GATE)/table.txt; \
	! grep -q REGRESSION $(GATE)/table.txt

# Short-budget coverage-guided fuzzing of the binary decoders — the
# record framing every store and the wire share, the wire-frame header
# decoder, the LSM sorted-run block decoder, the persisted JSON CRDT
# document state and a key's snapshot-plus-delta record log (replayed
# against a long-lived engine; its inputs run for milliseconds, so
# minimizing one is capped at 2s to leave the budget to fuzzing) — enough
# for CI to catch a decoder regression without a long fuzz run.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFrame -fuzztime 10s ./internal/framing
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzRunDecode -fuzztime 10s ./internal/statedb
	$(GO) test -run xxx -fuzz FuzzDocStateRoundTrip -fuzztime 10s ./internal/jsoncrdt
	$(GO) test -run xxx -fuzz FuzzPersistedKeyReplay -fuzztime 10s -fuzzminimizetime 2s ./internal/core

# Two short live-network runs with durable peers — state store and block
# store — over one throwaway datadir: proves the -backend disk path end to
# end, and fails unless the second run resumes every channel from the
# state the first persisted (CI runs this).
DEMO_PERSIST := $(GO) run ./cmd/fabricnet -txs 60 -rate 600 -block 10 -clients 2 -backend disk
demo-persist:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(DEMO_PERSIST) -datadir "$$dir"; \
	$(DEMO_PERSIST) -datadir "$$dir" > "$$dir/run2.log" || { cat "$$dir/run2.log"; exit 1; }; \
	cat "$$dir/run2.log"; \
	grep -q 'resumed .* persisted state at block height' "$$dir/run2.log" || \
		{ echo "demo-persist: the second run did not resume from the persisted state"; exit 1; }
