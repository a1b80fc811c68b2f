# Targets mirror the CI jobs in .github/workflows/ci.yml so local and CI
# invocations stay in lockstep.

GO ?= go

# Drivers checked by the determinism target: every protocol registered in
# internal/gossip (keep in sync with gossip.Names()).
DRIVERS := auto dtg echo election flood pattern push-pull rr spanner superstep

# Ratcheted total-coverage minimum for `make cover`: raised at the
# /v1/estimates PR, which measured 85.3% (scheduler-dependent test
# paths move a few tenths, so the floor sits just under the measured
# value). Raise it when coverage improves; never lower it without a
# written reason.
COVER_MIN := 84.5

.PHONY: all build test race bench bench-json bench-baseline bench-compare \
	determinism cover fuzz-smoke staticcheck fmt vet experiments serve \
	load-smoke distributed-smoke netcheck docs docs-check lint-docs ab ab-null lines clean

all: build test

build:
	$(GO) build ./...

# benchmark/ is a module of its own (replace gossip => ../), so ./... does
# not reach it: vet and test it here too, or a change to the surface it
# compiles against breaks it unseen: gossip.Dispatch and PrepareDist
# (both with their g parameter), DriverOptions, ExecOptions, DriverResult;
# sim.Run, RunDistLocal, Config, Result, Factory, StopFunc, WakeOnDelivery,
# DistFrame/DistGain/DistIntent/DistStats; spanner.Build, Options;
# graphgen.Build, Spec, NewRand, RingMatchingExpanderCSR; graph.Graph, CSR;
# adversity.ParseSpec; curve.FromInformedAt, Sample; server.New, Server,
# Config, Request, Snapshot; loadgen.DefaultMix, StartLocal;
# api.AppendRoundFrame, DecodeRoundFrame, RoundFrame, Event, CacheHeader,
# SchemaVersion — and the methods and fields it uses of those.
test:
	$(GO) test ./...
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

race:
	$(GO) test -race ./...

# One iteration of every benchmark — the CI bench smoke. It exercises the
# parallel experiment runner (BenchmarkAblationGridWorkers) alongside the
# per-experiment and substrate benchmarks, including the n=10⁶
# BenchmarkSimMillionNode gate.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Substrate microbenchmarks (engine, conductance, spanner, large-scale
# and million-node event-engine runs) as a JSON artifact: ns/op,
# allocs/op and the rounds metric per benchmark. CI uploads
# BENCH_sim.json on every push so the perf trajectory is tracked across
# PRs, then gates it against the committed baseline (bench-compare).
bench-json:
	$(GO) test -bench='^(BenchmarkSimPushPullRound|BenchmarkSimLargeScale|BenchmarkSimLossyPushPull|BenchmarkSimMillionNode|BenchmarkConductance|BenchmarkSpannerBuild|BenchmarkServerThroughput|BenchmarkServerCachedHit|BenchmarkSweepWarmStart|BenchmarkDistributedShardMerge|BenchmarkDistributedCoordinator|BenchmarkEstimateFit)' \
		-benchtime=1x -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson > BENCH_sim.json

# Refresh the committed regression baseline from the current machine.
# Run this (and commit BENCH_baseline.json) when landing an intentional
# perf change or when CI hardware shifts.
bench-baseline: bench-json
	cp BENCH_sim.json BENCH_baseline.json

# The CI bench-regression gate: fail when ns/op or allocs/op regress
# more than 25% against the committed baseline on matched benchmarks.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_sim.json

# One deterministic fault schedule exercised by the determinism target:
# loss + amnesic churn + a link flap + a crash batch, all valid on the
# 16-node dumbbell every driver runs on.
FAULT_SPEC := loss=0.15;churn=2:6-14:amnesia;flap=0-1:3-8;crash=9:5

# Worker-count determinism: every registered driver must produce
# byte-identical CLI output with -workers 1 and -workers 8 — on a benign
# network AND under the adversity schedule above — the experiment grid
# must be schedule-independent (-parallel 1 vs 8), and the cross-protocol
# invariant harness must hold. Shared by CI and local dev.
determinism:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gossipsim ./cmd/gossipsim; \
	for algo in $(DRIVERS); do \
		$$tmp/gossipsim -graph dumbbell -n 8 -latency 12 -algo $$algo -seed 3 -analyze=false -workers 1 > $$tmp/w1.out; \
		$$tmp/gossipsim -graph dumbbell -n 8 -latency 12 -algo $$algo -seed 3 -analyze=false -workers 8 > $$tmp/w8.out; \
		cmp $$tmp/w1.out $$tmp/w8.out || { echo "determinism: $$algo diverges between -workers 1 and -workers 8" >&2; exit 1; }; \
		echo "determinism: $$algo OK (workers 1 == 8)"; \
		rc=0; $$tmp/gossipsim -graph dumbbell -n 8 -latency 12 -algo $$algo -seed 3 -analyze=false -workers 1 -fault-spec '$(FAULT_SPEC)' > $$tmp/f1.out || rc=$$?; \
		[ $$rc -eq 0 ] || [ $$rc -eq 2 ] || { echo "determinism: $$algo errored (exit $$rc) under the fault schedule" >&2; exit 1; }; \
		rc=0; $$tmp/gossipsim -graph dumbbell -n 8 -latency 12 -algo $$algo -seed 3 -analyze=false -workers 8 -fault-spec '$(FAULT_SPEC)' > $$tmp/f8.out || rc=$$?; \
		[ $$rc -eq 0 ] || [ $$rc -eq 2 ] || { echo "determinism: $$algo errored (exit $$rc) under the fault schedule" >&2; exit 1; }; \
		cmp $$tmp/f1.out $$tmp/f8.out || { echo "determinism: $$algo diverges under the fault schedule" >&2; exit 1; }; \
		echo "determinism: $$algo OK under faults (workers 1 == 8)"; \
	done; \
	$(GO) run ./cmd/experiments -id E7 -quick -parallel 1 -json > $$tmp/e7w1.json; \
	$(GO) run ./cmd/experiments -id E7 -quick -parallel 8 -json > $$tmp/e7w8.json; \
	cmp $$tmp/e7w1.json $$tmp/e7w8.json && echo "determinism: experiment grid OK (parallel 1 == 8)"; \
	$(GO) test -count=1 ./internal/invariant && echo "determinism: invariant harness OK (10 drivers x families x {benign,lossy,churny})"

# Total-statement coverage with a ratcheted minimum: fails below
# COVER_MIN, the percentage recorded when this gate merged. CI runs it;
# refresh the floor upward as coverage grows.
cover:
	@$(GO) test -count=1 -coverprofile=cover.out ./... > cover-test.log 2>&1 || \
		{ echo "cover: tests failed:" >&2; grep -v '^ok ' cover-test.log >&2; exit 1; }; \
	total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the ratcheted minimum $(COVER_MIN)%" >&2; exit 1; }

# Short fuzz smoke of the structured-input parsers/builders (the fault
# schedule DSL, the CSR builder and the map graph's memoized CSR under
# edits, the /v1/estimates request validator),
# of the network decoders (the TCP mesh's SYN/ACK payload, the frame
# reader under both it and the shard RPC, and the shard RPC's round, meta
# and result frame decoders), of the engine's word-path
# delivery against the per-rumor reference, of the list-or-bitmap node
# set and the local-broadcast heard-set log against map models, of a
# replayed ℓ-DTG repetition against a live one, of the server's
# hand-rolled event lines against encoding/json, and of Theorem
# 5 and Theorem 20's spanner stretch on drawn graphs; CI-friendly
# seconds, not hours.
fuzz-smoke:
	$(GO) test ./internal/sim -fuzz FuzzDeliverWindow -fuzztime 10s -run '^$$'
	$(GO) test ./internal/adversity -fuzz FuzzFaultSpec -fuzztime 10s -run '^$$'
	$(GO) test ./internal/graph -fuzz FuzzCSRBuilder -fuzztime 10s -run '^$$'
	$(GO) test ./internal/graph -fuzz FuzzGraphCSR -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server -fuzz FuzzEstimateValidate -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server -fuzz FuzzEventLines -fuzztime 10s -run '^$$'
	$(GO) test ./internal/gossip -fuzz FuzzDecodeNetMsg -fuzztime 10s -run '^$$'
	$(GO) test ./internal/bitset -fuzz FuzzNodeSet -fuzztime 10s -run '^$$'
	$(GO) test ./internal/gossip -fuzz FuzzHeardSet -fuzztime 10s -run '^$$'
	$(GO) test ./internal/gossip -fuzz FuzzDTGReplay -fuzztime 10s -run '^$$'
	$(GO) test ./internal/conductance -fuzz FuzzTheorem5 -fuzztime 10s -run '^$$'
	$(GO) test ./internal/spanner -fuzz FuzzSpannerStretch -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/api -fuzz FuzzReadFrame -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/api -fuzz FuzzDecodeShardFrames -fuzztime 10s -run '^$$'

# Static analysis beyond go vet. Requires staticcheck on PATH
# (go install honnef.co/go/tools/cmd/staticcheck@latest); CI installs it.
staticcheck:
	staticcheck ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Regenerate the paper's evaluation tables across all cores and drop JSON
# artifacts in ./results.
experiments:
	$(GO) run ./cmd/experiments -progress -out results

# Run the simulation service locally (SIGINT/SIGTERM drain gracefully).
serve:
	$(GO) run ./cmd/gossipd -addr 127.0.0.1:8080

# The CI load-smoke gate: build gossipd with the race detector, boot two
# in-process servers with different pool sizes, and drive 220 concurrent
# closed-loop clients through the fixed request mix (a barrier-
# synchronized unique-seed surge wave, then the DefaultMix including the
# lossy/churny fault-spec job). Fails on any non-200, any repeat cache
# miss for an identical request, any nondeterministic response body, a
# cross-pool body mismatch, or peak concurrency below 200 in-flight jobs.
load-smoke:
	$(GO) run -race ./cmd/gossipd -selfcheck -clients 220 -requests 4 -min-peak 200 -max-wall 5m

# Real-network cross-validation: run push-pull and flood on a live
# goroutine mesh (gossip.RunNet over transport.ChanMesh) and check every
# trial's (rounds, messages) against the simulator's 16-replica
# statistical envelope. The verdict is statistical — each trial must
# complete and land inside the per-level bands, with at most one outlier
# per five trials tolerated.
netcheck:
	$(GO) test -count=1 -run 'TestNetCheck' ./internal/netcheck

# The CI distributed-smoke gate: build gossipd once, launch a 3-member
# fleet (shared -peers membership; any member coordinates) plus a
# single-process reference server on fixed loopback ports, then run
# `gossipd -distcheck`, which byte-compares every fleet response against
# the reference: the 6-driver mix rotated across members, one n=2^18
# push-pull job sharded over 2 workers, and a cross-member
# cache-forwarding probe that must come back X-Gossipd-Cache: hit.
# A second step runs a 2-process gossipnode fleet over loopback TCP —
# real sockets, real wall-clock rounds — whose lead exits 0 only when
# the fleet's spread curve lands inside the simulator's envelope.
DIST_REF  := 127.0.0.1:9700
DIST_PEERS := 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703
NODE_PEERS := 127.0.0.1:9711,127.0.0.1:9712

distributed-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || :; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gossipd ./cmd/gossipd; \
	for peer in $$(echo '$(DIST_PEERS)' | tr ',' ' '); do \
		$$tmp/gossipd -addr $$peer -peers '$(DIST_PEERS)' -advertise $$peer -max-n 262144 & pids="$$pids $$!"; \
	done; \
	$$tmp/gossipd -addr $(DIST_REF) -max-n 262144 & pids="$$pids $$!"; \
	for peer in $(DIST_REF) $$(echo '$(DIST_PEERS)' | tr ',' ' '); do \
		ok=""; \
		for i in $$(seq 1 100); do \
			if curl -sf http://$$peer/healthz >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.2; \
		done; \
		[ -n "$$ok" ] || { echo "distributed-smoke: gossipd at $$peer never became healthy" >&2; exit 1; }; \
	done; \
	$$tmp/gossipd -distcheck -fleet '$(DIST_PEERS)' -reference $(DIST_REF) -shards 2 -shard-n 262144; \
	$(GO) build -o $$tmp/gossipnode ./cmd/gossipnode; \
	$$tmp/gossipnode -index 1 -peers '$(NODE_PEERS)' -graph grid -n 49 -seed 11 & pids="$$pids $$!"; \
	$$tmp/gossipnode -index 0 -peers '$(NODE_PEERS)' -graph grid -n 49 -seed 11; \
	echo "distributed-smoke: gossipnode TCP fleet landed inside the simulator envelope"

# Regenerate the generated documentation layer (docs/DRIVERS.md from the
# driver registry, docs/API.md from the internal/server/api doc
# comments). Run after changing a driver registration or the wire schema
# and commit the result; docs-check (CI and TestCommittedDocsAreCurrent)
# fails when the committed files drift from the code.
docs:
	$(GO) run ./cmd/gossipdoc

docs-check:
	$(GO) run ./cmd/gossipdoc -check

# Every package must carry a package doc comment — the godoc surface the
# generated docs and pkg.go.dev render from.
lint-docs:
	@out=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep . || :); \
	if [ -n "$$out" ]; then \
		echo "lint-docs: packages missing a package doc comment:"; echo "$$out"; exit 1; \
	fi; \
	echo "lint-docs: every package documented"

# The A/B behind every performance claim: PAIRS interleaved runs of
# benchmark/run.sh on the committed tree at PARENT and on a snapshot of
# the working tree, each exported to its own directory, medians,
# quartiles and pairs won per end-to-end metric. Its output is what a
# docs/TRAJECTORY.md row records. ab-null runs the working-tree snapshot
# on both sides: the harness's own noise floor.
PARENT ?= HEAD
WORKLOAD ?= sim-latency
PAIRS ?= 10
ab:
	bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)
ab-null:
	bash scripts/ab.sh - $(WORKLOAD) $(PAIRS)

# Non-test and test Go line counts per top-level directory and in total
# (benchmark/ excluded): the two numbers a simplicity PR's CHANGES.md
# entry quotes for parent and change.
lines:
	@bash scripts/lines.sh

# The git-ignored products of the targets above and of benchmark/run.sh.
clean:
	rm -rf results cover.out cover-test.log BENCH_sim.json .bench_build
