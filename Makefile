# Developer entry points. `make check` is the tier-1 verification gate
# (see ROADMAP.md) plus a -race pass over the packages with the most
# lock-free concurrency, a short fuzz of the recovery decoders, and the
# repo benchmark's own vet + smoke test (a module of its own under
# benchmarks/, which `./...` does not reach) and the runner contract the
# pipeline drives it through.

GO ?= go

.PHONY: check build test vet nodeprecated race fuzz benchsmoke benchpreflight surface figdiff bench perf cache faults wal repl scan scaleout offload rebalance ycsb

check: vet nodeprecated build test race fuzz benchsmoke benchpreflight

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

# The numbers ROADMAP item 5 (halve the surface) is judged by, per package:
# non-test Go lines and exported constructors (the functions go doc lists
# under a type); then the engine.Options field count and, for the figure
# harness, the exported functions and methods and the exported variables of
# internal/bench and the bench.Config field count — cmd/dlsm-bench is
# listed so that moving lines between it and internal/bench cannot read as
# a reduction. Run it at the parent and at the change; a simplicity PR
# reports the measured delta.
SURFACE_PKGS = . internal/engine internal/shard internal/wal internal/repl internal/bench cmd/dlsm-bench
FIELDS = awk '/^type [A-Za-z]* struct/,/^}/' | grep -cE '^[[:space:]]+[A-Z][A-Za-z0-9]*[[:space:]]'
surface:
	@for p in $(SURFACE_PKGS); do \
		printf '%-16s %5d lines  constructors:' $$p $$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l); \
		$(GO) doc -short ./$$p | sed -n 's/^    func \([A-Za-z0-9_]*\)(.*/ \1/p' | tr -d '\n'; echo; \
	done
	@printf 'engine.Options   %5d fields\n' $$($(GO) doc ./internal/engine Options | $(FIELDS))
	@printf 'bench.Config     %5d fields\n' $$($(GO) doc ./internal/bench Config | $(FIELDS))
	@printf 'internal/bench   %5d exported functions and methods, %d exported variables\n' \
		$$($(GO) doc -all ./internal/bench | grep -c '^func ') $$($(GO) doc -all ./internal/bench | grep -c '^var ')

# Figure text is the harness's contract: `make figdiff REF=<rev>` builds
# cmd/dlsm-bench at REF (in a temporary git worktree, removed on exit) and
# at the working tree, runs both per figure with -metrics=false, and cmp's
# stdout, the stderr progress lines and the exit status. Exit 1 and the
# differing figure ids on mismatch; a figure that exits with anything but 0
# or a failed check's 1 on either side (a crash, an id REF does not know)
# counts as differing however alike the two sides look. The default FIGS
# cover all four runner topologies and every footer shape in about two
# minutes; FIGS=all is every figure of the table (~10 min at N=20000). A
# change that declares a difference names it as MASK, a sed script applied
# to both sides before they are compared, e.g.
# MASK='/figscaleout/s/remote CPU [0-9]*%//'; every result line repeats the
# MASK it passed under.
FIGS ?= 9,12,13,14b,scaleout,offload,ycsb
N ?= 20000
MASK ?=
figdiff:
	@test -n "$(REF)" || { echo 'usage: make figdiff REF=<rev> [FIGS=9,12,...|all] [N=20000] [MASK=<sed script>]' >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/ref" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --quiet --detach "$$tmp/ref" '$(REF)'; \
	(cd "$$tmp/ref" && $(GO) build -o "$$tmp/ref.bin" ./cmd/dlsm-bench); \
	$(GO) build -o "$$tmp/new.bin" ./cmd/dlsm-bench; \
	figs='$(FIGS)'; \
	if [ "$$figs" = all ]; then \
		figs=$$("$$tmp/new.bin" -h 2>&1 | sed -n 's/.*figure to reproduce: \(.*\) all$$/\1/p'); \
	fi; \
	masked=; \
	if [ -n '$(MASK)' ]; then masked=" (MASK: $(MASK))"; fi; \
	bad=; \
	for f in $$(echo "$$figs" | tr ',' ' '); do \
		for side in ref new; do \
			rc=0; \
			"$$tmp/$$side.bin" -fig $$f -n $(N) -metrics=false >"$$tmp/$$side.out" 2>"$$tmp/$$side.err" || rc=$$?; \
			echo $$rc >"$$tmp/$$side.rc"; \
			sed -i -e '$(MASK)' "$$tmp/$$side.out" "$$tmp/$$side.err"; \
		done; \
		if [ $$(cat "$$tmp/ref.rc") -gt 1 ] || [ $$(cat "$$tmp/new.rc") -gt 1 ]; then \
			echo "figdiff: -fig $$f FAILED: exit status $$(cat "$$tmp/ref.rc") at $(REF), $$(cat "$$tmp/new.rc") here"; \
			tail -n 3 "$$tmp/ref.err" "$$tmp/new.err"; \
			bad="$$bad $$f"; \
		elif cmp "$$tmp/ref.out" "$$tmp/new.out" && cmp "$$tmp/ref.err" "$$tmp/new.err" && cmp "$$tmp/ref.rc" "$$tmp/new.rc"; then \
			echo "figdiff: -fig $$f identical, exit status $$rc$$masked"; \
		else \
			bad="$$bad $$f"; \
		fi; \
	done; \
	if [ -n "$$bad" ]; then echo "figdiff: figures differ from $(REF)$$masked:$$bad" >&2; exit 1; fi

# benchmarks/dlsm-perf imports the public dlsm API only: a change that
# breaks it would otherwise strand the benchmark unnoticed.
benchsmoke:
	cd benchmarks/dlsm-perf && $(GO) vet ./... && $(GO) test ./...

# The runner contract, not only the smoke test: the exact command the
# pipeline runs for every workload of BENCHMARK.json and both --trace
# values (benchmarks/run.py sets GOFLAGS=-mod=mod, GOPROXY=off and builds
# into .bench_build/), half a second each. Any non-zero exit, or a last
# line that is not a JSON object with "correct": true, fails.
benchpreflight:
	@mkdir -p .bench_build; out=.bench_build/preflight.out; \
	for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		for tr in 0 1; do \
			python3 benchmarks/run.py --workload $$w --seed 7 --seconds 0.5 --trace $$tr >$$out && \
			tail -n 1 $$out | python3 -c 'import json,sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' || \
				{ echo "benchpreflight: --workload $$w --trace $$tr FAILED:" >&2; tail -n 3 $$out >&2; exit 1; }; \
			echo "benchpreflight: --workload $$w --trace $$tr ok"; \
		done; \
	done

# Hot-KV cache budget sweep (Zipf readrandom, cache off -> 64MB).
cache:
	$(GO) run ./cmd/dlsm-bench -fig cache -n 100000

# The figure targets below say what each sweeps. What a figure is meant to
# show is its entry's Check in internal/bench/table.go: dlsm-bench evaluates
# it after printing whenever -n is at least the check's floor (one "CHECK
# FAILED" line and a non-zero exit, silent otherwise), so `make repl`,
# `make scan`, `make scaleout`, `make offload` and `make rebalance` check
# themselves.

# Remote-WAL durability sweep (randomfill): logging off, Async and Sync,
# each with the pipelined commit path and with its stop-and-wait ablation
# (one record per doorbell, one doorbell in flight). The orderings are
# asserted by internal/bench TestFigWALOrdering.
wal:
	$(GO) run ./cmd/dlsm-bench -fig wal -n 100000

# Memnode replication sweep (randomfill, sync WAL): single copy, then
# factor 2 in both SSTable transfer modes, with the replication network
# bytes of each.
repl:
	$(GO) run ./cmd/dlsm-bench -fig repl -n 100000

# Scan prefetching sweep: depth {1,2,4,8} x chunk ceiling on readseq and
# scanrandom. Depth 2 is the default scan path (what Fig 11 runs); depth 1
# is the synchronous ablation, one PrefetchBytes read per table per seek.
scan:
	$(GO) run ./cmd/dlsm-bench -fig scan -n 100000

# Flush-path ablation (fillrandom, sync WAL): `all` is what a DB with a log
# does — the memory node builds the table from its log ring — and the other
# columns move layers back to the compute node (filter, +index, the whole
# flush), with compute and remote CPU per point.
offload:
	$(GO) run ./cmd/dlsm-bench -fig offload -n 100000

# Elastic-sharding sweep: a 90%-hot key band inside one of λ=4 shards,
# static geometry vs Options.AutoBalance, plus a shifting-hotspot fill
# where the band moves mid-run, with the balancer's decision counters.
rebalance:
	$(GO) run ./cmd/dlsm-bench -fig rebalance -n 100000

# Multi-tenant service-tier YCSB matrix: all six core workloads through
# the front-end tier, then the mixed-tenant scenario (latency-sensitive
# YCSB-B beside a scan-heavy YCSB-E variant with 1 000-entry scans), with
# and without a rate limit on the scan tenant. The frontend's p99
# improvement is asserted by internal/bench
# TestMixedTenantAdmissionImprovesP99.
ycsb:
	$(GO) run ./cmd/dlsm-bench -fig ycsb -n 100000

# Multi-compute scale-out sweep: aggregate read throughput at 1, 2 and 4
# compute nodes (one lease-holding primary + read-only secondaries) over a
# fixed memory tier.
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
