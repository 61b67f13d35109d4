# Developer entry points. `make check` is the tier-1 verification gate
# (see ROADMAP.md) plus a -race pass over the packages with the most
# lock-free concurrency, a short fuzz of the recovery decoders, and the
# repo benchmark's own vet + smoke test (a module of its own under
# benchmarks/, which `./...` does not reach).

GO ?= go

.PHONY: check build test vet nodeprecated race fuzz benchsmoke surface bench perf cache faults wal repl scan scaleout offload rebalance ycsb

check: vet nodeprecated build test race fuzz benchsmoke

vet:
	$(GO) vet ./...

# A deprecated name is a second way to do something: delete it and port its
# callers in the same change instead (benchmarks/ is not ours to edit).
nodeprecated:
	@if grep -rn 'Deprecated:' --include=*.go --exclude-dir=.bench_build . | grep -v '^./benchmarks/'; then \
		echo 'Deprecated: markers found outside benchmarks/' >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry/... ./internal/engine/... \
		./internal/rpc/... ./internal/memnode/... ./internal/faults/... \
		./internal/cache/... ./internal/shard/... ./internal/wal/... \
		./internal/sstable/... ./internal/iterx/... ./internal/readahead/... \
		./internal/lease/... ./internal/repl/... ./internal/balance/... \
		./internal/service/... ./internal/sim/... ./internal/rdma/...

# Short fuzz of the bytes recovery trusts from remote memory (checkpoint
# blobs must decode or error, never panic) and of the merge iterator the
# whole read path sits on (sorted, deduped-to-newest, never yields a
# deleted key). Corpus seeds cover valid, truncated and corrupt inputs;
# CI keeps the budget small.
fuzz:
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s
	$(GO) test ./internal/iterx/ -run '^$$' -fuzz FuzzMergeIterator -fuzztime 5s
	$(GO) test ./internal/lease/ -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 5s
	$(GO) test ./internal/repl/ -run '^$$' -fuzz FuzzDecodeReplicaSlot -fuzztime 5s
	$(GO) test ./internal/memnode/ -run '^$$' -fuzz FuzzDecodeFlushBuildArgs -fuzztime 5s
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzRouteKey -fuzztime 5s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzAdmission -fuzztime 5s

# The three numbers ROADMAP item 3 (halve the surface) is judged by, per
# package: non-test Go lines, exported constructors (the functions go doc
# lists under a type), and the engine.Options field count. Run it at the
# parent and at the change; a simplicity PR reports the measured delta.
SURFACE_PKGS = . internal/engine internal/shard internal/wal internal/repl internal/bench
surface:
	@for p in $(SURFACE_PKGS); do \
		printf '%-16s %5d lines  constructors:' $$p $$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l); \
		$(GO) doc -short ./$$p | sed -n 's/^    func \([A-Za-z0-9_]*\)(.*/ \1/p' | tr -d '\n'; echo; \
	done
	@printf 'engine.Options   %5d fields\n' $$($(GO) doc ./internal/engine Options | \
		awk '/^type Options struct/,/^}/' | grep -cE '^[[:space:]]+[A-Z][A-Za-z0-9]*[[:space:]]')

# benchmarks/dlsm-perf imports the public dlsm API only: a change that
# breaks it would otherwise strand the benchmark unnoticed.
benchsmoke:
	cd benchmarks/dlsm-perf && $(GO) vet ./... && $(GO) test ./...

# Hot-KV cache budget sweep (Zipf readrandom, cache off -> 64MB).
cache:
	$(GO) run ./cmd/dlsm-bench -fig cache -n 100000

# Remote-WAL durability sweep (randomfill): logging off, Async and Sync,
# each with the pipelined commit path and with its stop-and-wait ablation
# (one record per doorbell, one doorbell in flight). The orderings are
# asserted by internal/bench TestFigWALOrdering.
wal:
	$(GO) run ./cmd/dlsm-bench -fig wal -n 100000

# Memnode replication sweep (randomfill, sync WAL): single copy, then
# factor 2 in both SSTable transfer modes. Index-only must use strictly
# fewer replication network bytes than log-replay at equal durability.
repl:
	$(GO) run ./cmd/dlsm-bench -fig repl -n 100000

# Scan prefetching sweep: depth {1,2,4,8} x chunk ceiling on readseq and
# scanrandom. Depth 2 is the default scan path (what Fig 11 runs); depth 1
# is the synchronous ablation, one PrefetchBytes read per table per seek.
# The orderings are asserted by internal/bench TestFigScanOrdering.
scan:
	$(GO) run ./cmd/dlsm-bench -fig scan -n 100000

# Write-path offload ablation (fillrandom, sync WAL): no offload, then
# each layer cumulatively (flush serialization, +index build, +filter).
# All layers on must show compute CPU strictly below the baseline at no
# worse throughput.
offload:
	$(GO) run ./cmd/dlsm-bench -fig offload -n 100000

# Elastic-sharding sweep: a 90%-hot key band inside one of λ=4 shards,
# static geometry vs Options.AutoBalance, plus a shifting-hotspot fill
# where the band moves mid-run. Auto-balance must beat static on every
# workload and the shifting run must show at least two splits.
rebalance:
	$(GO) run ./cmd/dlsm-bench -fig rebalance -n 100000

# Multi-tenant service-tier YCSB matrix: all six core workloads through
# the front-end tier, then the mixed-tenant scenario (latency-sensitive
# YCSB-B beside a scan-heavy YCSB-E variant with 1 000-entry scans).
# Rate-limiting the scan tenant must strictly improve the frontend's p99.
ycsb:
	$(GO) run ./cmd/dlsm-bench -fig ycsb -n 100000

# Multi-compute scale-out sweep: aggregate read throughput at 1, 2 and 4
# compute nodes (one lease-holding primary + read-only secondaries) over a
# fixed memory tier. Throughput must rise with every added compute node.
scaleout:
	$(GO) run ./cmd/dlsm-bench -fig scaleout -n 100000

# Fault-scenario suite. Every scenario pins its own sim seed, so the
# fault schedule and the virtual-time results are bit-identical per run.
faults:
	$(GO) test -run 'Fault|Outage|Flap|Crash|Dedupe|Closed|Retry|Robust' -v \
		./internal/faults/... ./internal/rdma/... ./internal/rpc/... \
		./internal/memnode/... ./internal/engine/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One workload of the repo benchmark (BENCHMARK.json), end-to-end metrics
# only: `make perf W=ycsb_a_svc [SEED=7]`. Run it here and in a checkout of
# the parent commit for the before/after of a perf change.
SEED ?= 7
perf:
	python3 benchmarks/run.py --workload $(W) --seed $(SEED) --seconds 5 --trace 0
