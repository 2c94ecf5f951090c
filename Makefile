# BWaveR build/test entry points. `make ci` is the verification gate
# referenced from ROADMAP.md: vet, the full test suite plain (the allocation
# gates skip themselves under the race detector) and under the race detector
# (the server runs jobs on goroutines; races are correctness bugs), the fuzz
# and benchmark smokes, and the three process-level chaos drills.

GO ?= go

# Per-corpus budget for fuzz-smoke; raise for a real fuzzing session, e.g.
# `make fuzz-smoke FUZZTIME=5m`.
FUZZTIME ?= 10s

.PHONY: ci build vet test race bench bench-gate bench-smoke fuzz-smoke chaos-smoke stream-smoke cluster-smoke

ci: vet test race fuzz-smoke bench-smoke chaos-smoke stream-smoke cluster-smoke

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-gate compares two results files of `go run ./benchmark` (each run
# appends to .bench_build/benchmark/results.jsonl) and fails on a regression
# beyond the bound BENCHMARK.json fixes per metric:
# `make bench-gate BASE=parent.jsonl NEW=change.jsonl`.
bench-gate:
	$(GO) run ./benchmark -compare $(BASE) $(NEW)

# bench-smoke runs the benchmarks whose bytes and allocations per operation
# are worth a glance in CI output: the two suffix-array constructions, index
# construction at 1 Mbp with and without the prefix table (B/base), the
# exact batch engine (also on a 16 Mbp reference whose rank structure spills
# out of a 2 MiB L2: MapReadsInto, whose chunks search in lock step and
# finish on the packed text, at 0 allocs/op beside batch-ranked, the same
# reads with the text detached so that every search ranks to the end, a
# loop of MapRead over them, and 16M/located, the exact-chr21 workload's
# shape on one worker: the k = 10 table attached and 8 192 reads located,
# at 0 allocs/op; reads/s each; and EColi/full and
# EColi/sampled-8, the served shape: 4.6 Mbp with the k = 10 table, 8 192
# located reads, on the full and on a rate-8 sampled suffix array),
# the k-mismatch batch engine (BenchmarkMapReadsApprox: 100 bp reads on an
# E. coli-like 4.6 Mbp reference at k = 1 and 2, at k = 1 with the exact
# hits located, and k=2/rescue, whose unmapped quarter carries one or two
# substitutions that pass 2 rescues; reads/s and allocs/op),
# the mem batch engine (a 30 kbp reference in cache and an E. coli-like
# 4.6 Mbp one out of it, reads/s each; and EColi/full and EColi/sampled-8,
# the served shape: 8 192 paired 150 bp reads on 4.6 Mbp with the k = 10
# table, on the full and on a rate-8 sampled suffix array, 3 iterations,
# reads/s and 0 allocs/op) with the SMEM search (steps/op,
# table and ranked arms over a 256 kbp text whose tables stay in cache, a
# 4 Mbp one whose tables do not, that one also locating through samples at
# rate 8, both 4 Mbp sizes again under cold/, cycling 4 096 patterns whose
# lines do not stay in cache, and 1M/repeats, a 1 Mbp text of segments
# written 2 to 16 times whose matches are located and extended by reading
# the text; each table arm again as group-32, the same patterns searched
# 32 at a time in lock step, at the same steps/op) and the extension kernels it rests on (a
# full-band and a bandstart-4 arm, and full Smith-Waterman; 50 iterations,
# so warm-up allocations do not show), the k-mismatch search (steps/op, 35 and 100 bp at
# k = 1, 2 on the 4 Mbp text), locate through the full and the sampled
# suffix arrays (0 allocs/op on every arm), the read source
# beside the bare decode loop it must stay close to, and one warm job through
# the served path (submit, journal, map, emit, stream).
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSuffixArrayAlgos$$' -benchtime=1x ./internal/suffixarray
	$(GO) test -run='^$$' -bench='BenchmarkBuildIndex$$' -benchtime=1x ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkMapReads$$|BenchmarkMapReadsApprox$$' -benchtime=1x ./internal/core
	$(GO) test -run='^$$' -bench='MapReadsMemInto/(30k|EColiLike)$$|Extender' -benchtime=50x ./internal/core ./internal/align
	$(GO) test -run='^$$' -bench='MapReadsMemInto/EColi/' -benchtime=3x ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkSMEMs$$|BenchmarkCountApprox$$|BenchmarkLocateAppend$$' -benchtime=50x ./internal/fmindex
	$(GO) test -run='^$$' -bench='BenchmarkSource$$' -benchtime=10x ./internal/qc
	$(GO) test -run='^$$' -bench='BenchmarkServedWarmExactJob$$' -benchtime=1x ./internal/server

# fuzz-smoke gives every fuzz target a short budget; `go test` allows one
# -fuzz target per invocation, hence the per-target lines (18 targets; the
# last replays arbitrary journal bytes into a durable server).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzTolerantFastq$$' -fuzztime=$(FUZZTIME) ./internal/fastx
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=$(FUZZTIME) ./internal/fastx
	$(GO) test -run='^$$' -fuzz='^FuzzReaderGzip$$' -fuzztime=$(FUZZTIME) ./internal/fastx
	$(GO) test -run='^$$' -fuzz='^FuzzSourceBatches$$' -fuzztime=$(FUZZTIME) ./internal/qc
	$(GO) test -run='^$$' -fuzz='^FuzzRank$$' -fuzztime=$(FUZZTIME) ./internal/rrr
	$(GO) test -run='^$$' -fuzz='^FuzzRankPair$$' -fuzztime=$(FUZZTIME) ./internal/rrr
	$(GO) test -run='^$$' -fuzz='^FuzzSerialization$$' -fuzztime=$(FUZZTIME) ./internal/rrr
	$(GO) test -run='^$$' -fuzz='^FuzzReadIndex$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzPairPlacements$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSearchWithFtab$$' -fuzztime=$(FUZZTIME) ./internal/fmindex
	$(GO) test -run='^$$' -fuzz='^FuzzSMEMs$$' -fuzztime=$(FUZZTIME) ./internal/fmindex
	$(GO) test -run='^$$' -fuzz='^FuzzShortTable$$' -fuzztime=$(FUZZTIME) ./internal/fmindex
	$(GO) test -run='^$$' -fuzz='^FuzzCountApprox$$' -fuzztime=$(FUZZTIME) ./internal/fmindex
	$(GO) test -run='^$$' -fuzz='^FuzzBuild$$' -fuzztime=$(FUZZTIME) ./internal/suffixarray
	$(GO) test -run='^$$' -fuzz='^FuzzBreaker$$' -fuzztime=$(FUZZTIME) ./internal/resilience
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitForm$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzJobParams$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzJournalReplay$$' -fuzztime=$(FUZZTIME) ./internal/server

# chaos-smoke is the crash-safety gate: SIGKILL a real bwaver-server process
# mid-job, restart it against the same -state-dir, and assert the journaled
# job recovers and completes with correct results. The package tests also
# cover the in-process variants (snapshot restore, drain vs. submits).
chaos-smoke:
	$(GO) test -race -run='ChaosKillRestart' -count=1 ./cmd/bwaver-server

# stream-smoke is the streaming-protocol crash gate: SIGKILL a real server
# mid chunked upload and again mid result-stream, then assert the client
# recovers via the journaled offsets, an idempotent resubmit, and a ?from=N
# stream resume whose rows are bit-identical to an undisturbed buffered run.
stream-smoke:
	$(GO) test -race -run='StreamChaosKillResume' -count=1 ./cmd/bwaver-server

# cluster-smoke is the fault-tolerance gate for the gateway/worker tier: a
# real gateway process over two self-registered worker processes, the worker
# owning a running job SIGKILLed mid-job, the job asserted to complete on the
# replica with bit-identical results, scatter-gather stats asserted to answer
# around the corpse, and the gateway asserted to degrade to local serving once
# every worker is dead. The in-process variants (ring skew, breaker life
# cycle, deadline propagation, hung-worker scrapes) run in the package tests.
cluster-smoke:
	$(GO) test -race -run='ClusterChaosFailover' -count=1 ./cmd/bwaver-server
