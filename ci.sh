#!/bin/sh
# ci.sh — the repo's tier-1 gate. Runs the full static + test + benchmark
# smoke suite; exits non-zero on the first failure.
#
#   ./ci.sh          # vet, build, race tests, benchmark smoke
#   ./ci.sh -short   # skip the benchmark smoke pass
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The parallel experiment runner is the one place goroutines touch shared
# slices; race it explicitly so a future narrowing of the blanket run above
# cannot silently drop it. The fault layer and the degraded-read/resilience
# paths ride in the same stage: fault sweeps fan hermetic cells across the
# runner's workers, so they are the newest cross-goroutine surface.
echo "== go test -race (experiment runner + fault/resilience paths) =="
go test -race -count=1 ./internal/experiments/... ./internal/faults/... \
    ./internal/core/ ./internal/rados/ ./internal/erasure/

# Spec-table exhaustiveness: every named stack must assemble through
# BuildStack and serve I/O, every ablation spec must validate, and every
# invalid layer combination must be rejected — under the race detector, so
# a spec-table edit cannot land with an unbuildable row.
echo "== stack spec table (race) =="
go test -race -count=1 -run 'TestNamedSpecsBuild|TestBuildStack|TestParseStackSpec|TestSQFullBackoff' ./internal/core/
go test -race -count=1 -run 'TestAblationSpecsValid|TestGoldenDigests' ./internal/experiments/

# Fuzz seed corpus for the fused GF(256) kernel: runs the f.Add cases
# (length 0, sub-block, non-multiple-of-32 tails, misalignment) as plain
# tests — cheap enough for every CI run, -short included.
# Sharded engine: the conservative-lookahead barrier loop, the cross-shard
# network layer and the city-scale model are the only places worker
# goroutines run simulation events concurrently. Race the shard protocol
# tests plus a ScaleSweep smoke cell (256 OSDs across 1/2/8 shards)
# explicitly so the determinism property is always exercised under the
# detector.
echo "== sharded engine (race: shard protocol + scale smoke) =="
go test -race -count=1 -run 'TestShard|TestEngineReserve|TestFreelistCap|TestHeapRandomOrder' \
    ./internal/sim/ ./internal/netsim/
go test -race -count=1 -run 'TestScale' ./internal/rados/ ./internal/experiments/

# One concurrency model: every stack, workload generator and cluster daemon
# is a continuation, not a proc. Pin that no stack shape spawns a Proc from
# NewTestbed through Close or leaves a goroutine behind, that fio's workers
# spawn none, that a warm CQE reap allocates nothing, that every stack
# fails a submission after Close exactly once, that a warm OSD submit+service
# allocates nothing, that the fan-out issue paths and the client's warm
# replicated round trips allocate nothing beyond EC shard keys, that shard
# keys cost one allocation, that the client's proc wrappers survive a
# synchronous failure and an early-stopped EC read, that the shared retry
# driver keeps its contract, and that a Resource stays FIFO across proc and
# callback waiters — under the race detector. The card path rides along:
# a zero-length I/O completes once on every stack shape, the card's
# placement equals uncached CRUSH for every pg (and a placement error fails
# the extent before any fan-out), a warm card write allocates nothing, and
# image extent mapping allocates nothing. The host block path rides along
# too: a warm round trip through each pooled layer (io_uring, blk-mq
# bypass, UIFD over QDMA), a whole deliba-k-hw submit and an LSVD read miss
# allocate nothing, and the pools stay safe where the benchmark never goes
# (scheduler merges, a double EndIO, H2C stalls, a full C2H ring, failing
# link chains, coalesced cache misses).
echo "== continuation paths (race: no per-op procs + alloc pins + retry driver + mixed FIFO) =="
go test -race -count=1 -run 'TestNoPerOpProcs|TestSubmitAfterCloseFailsOnce|TestFanoutIssueZeroAlloc|TestFanoutECIssueAllocBound|TestZeroLengthIOCompletesOnce|TestCardPlacementMatchesUncached|TestCardPlacementErrorFailsExtent|TestCardWriteAllocPin|TestHWStackSubmitAllocPin|TestLSVDReadMissAllocPin' ./internal/core/
go test -race -count=1 -run 'TestWarmCQEReapZeroAlloc|TestRoundTripZeroAlloc|TestLinkedChainFailureReusesRecords' ./internal/iouring/
go test -race -count=1 -run 'TestBypassRoundTripZeroAlloc|TestMergedCallbacksFireOnceAndCarrierNotReused|TestEndIOTwicePanics' ./internal/blockmq/
go test -race -count=1 -run 'TestQueueRqZeroAlloc|TestC2HRingFullCompletesOnce' ./internal/uifd/
go test -race -count=1 -run 'TestH2CStallsCompleteEachOnce' ./internal/qdma/
go test -race -count=1 -run 'TestCoalescedWaitersFireOnceInOrder' ./internal/lsvd/
go test -race -count=1 -run 'TestRunSpawnsNoProcs' ./internal/fio/
go test -race -count=1 -run 'TestObjectNameMemoPin|TestExtentsIntoBufferZeroAlloc' ./internal/rbd/
go test -race -count=1 -run 'TestOSDSubmitAllocBound|TestShardKeyOneAlloc|TestClientSynchronousFailure|TestECReadStopsAtFailedShard|TestClientReplicatedAllocPin|TestRetryDriver' \
    ./internal/rados/
go test -race -count=1 -run 'TestResourceFIFOMixedWaiters|TestAcquireFuncRespectsQueue|TestBlockSynchronousWake|TestResourceBacklogBounded' \
    ./internal/sim/

# The window workers only run concurrently when GOMAXPROCS > 1, and the
# solo path only runs at 1, so pin both: the shard protocol tests, the
# golden digests and the stage profile (whose split-domain stages are fed
# from two shard workers) at GOMAXPROCS=1 and 4, plus the card write alloc
# pin, which fills the image's lazy object-name memo. GOMAXPROCS may exceed
# the CPU count, so this exercises the concurrent path on a 1-CPU box too.
# The continuation-path pins ride along, so the no-procs, reap, close,
# host-block-path and fio checks hold at either setting.
echo "== window workers at GOMAXPROCS=1 and 4 =="
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run 'TestShard|TestEngineReserve|TestFreelistCap|TestHeapRandomOrder' \
        ./internal/sim/ ./internal/netsim/
    GOMAXPROCS=$procs go test -count=1 -run 'TestGoldenDigests' ./internal/experiments/
    GOMAXPROCS=$procs go test -count=1 -run 'TestStageProfile|TestNoPerOpProcs|TestSubmitAfterCloseFailsOnce|TestCardWriteAllocPin|TestHWStackSubmitAllocPin|TestLSVDReadMissAllocPin' ./internal/core/
    GOMAXPROCS=$procs go test -count=1 -run 'TestWarmCQEReapZeroAlloc|TestRoundTripZeroAlloc|TestLinkedChainFailureReusesRecords' ./internal/iouring/
    GOMAXPROCS=$procs go test -count=1 -run 'TestBypassRoundTripZeroAlloc|TestMergedCallbacksFireOnceAndCarrierNotReused|TestEndIOTwicePanics' ./internal/blockmq/
    GOMAXPROCS=$procs go test -count=1 -run 'TestQueueRqZeroAlloc|TestC2HRingFullCompletesOnce' ./internal/uifd/
    GOMAXPROCS=$procs go test -count=1 -run 'TestH2CStallsCompleteEachOnce' ./internal/qdma/
    GOMAXPROCS=$procs go test -count=1 -run 'TestCoalescedWaitersFireOnceInOrder' ./internal/lsvd/
    GOMAXPROCS=$procs go test -count=1 -run 'TestRunSpawnsNoProcs' ./internal/fio/
done

# Write-back cache tier: the LSVD log/index/flush machinery runs a
# background flusher continuation inside the simulation plus the
# parallel sweep cells, so race the package and the cache sweep explicitly;
# the crash-recovery smoke pins the zero-acked-loss replay contract, and
# the split-domain smoke drives the host-domain client + cache against
# OSDs on a second shard.
echo "== lsvd cache tier (race: package + sweep + crash recovery) =="
go test -race -count=1 ./internal/lsvd/
go test -race -count=1 -run 'TestCrashRecovery' ./internal/lsvd/
go test -race -count=1 -run 'TestCacheSweep|TestCacheHit|TestParseCacheSpec|TestValidateRejectsCacheCombos' \
    ./internal/experiments/ ./internal/core/
echo "== split-domain testbed smoke (race, -shards 2) =="
go test -race -count=1 -run 'TestSplitDomain|TestFabricSplit' \
    ./internal/core/ ./internal/netsim/

# Per-I/O span tracing: the trace sweep fans traced cells across the
# runner's workers and, on split-domain testbeds, two shard workers feed
# one sink set — race the package plus the determinism/perturbation gates
# explicitly. TestTracingZeroPerturbation is the zero-cost-off contract's
# strong form (full-rate tracing leaves every statistic bit-identical);
# the golden-digest gate above already pins the tracing-off bytes.
echo "== trace subsystem (race: package + sweep determinism + zero perturbation) =="
go test -race -count=1 ./internal/trace/
go test -race -count=1 -run 'TestTraceSweep|TestTracingZeroPerturbation|TestTraceFileRoundTrip|TestFamilyProbe' \
    ./internal/experiments/
go test -race -count=1 -run 'TestStageProfile' ./internal/core/

# Fuzz seed corpus for the trace encoder: arbitrary span names, IDs and
# (possibly negative) times must encode to valid JSON that round-trips
# decode/re-encode idempotently.
echo "== trace encoder fuzz seeds =="
go test -run 'Fuzz' ./internal/trace/

# Fuzz seed corpus for the extent index: random overlapping insert/lookup
# sequences cross-checked against a flat shadow map, as plain tests.
echo "== lsvd extent-index fuzz seeds =="
go test -run 'Fuzz' ./internal/lsvd/

echo "== gf256 fuzz seeds =="
go test -run 'Fuzz' ./internal/gf256/

# Fuzz seed corpus for the retry backoff: bounds (jitter in [base, cap]),
# nil-rng upper-edge dominance, and same-seed replay, as plain tests.
echo "== faults backoff fuzz seeds =="
go test -run 'Fuzz' ./internal/faults/

# Multi-Raft replication backend: per-PG groups run leader election, log
# replication and snapshot catch-up inside the sim, and the replication
# head-to-head fans hermetic cells across the runner's workers — race the
# package plus the sweep's determinism/availability/deadline-budget gates
# explicitly, and run the wire-codec fuzz seed corpus as plain tests.
echo "== raft backend (race: package + replication head-to-head) =="
go test -race -count=1 ./internal/raft/
go test -race -count=1 -run 'TestRaftSweep|TestRaftElectionStorm' ./internal/experiments/
echo "== raft codec fuzz seeds =="
go test -run 'Fuzz' ./internal/raft/

# Multi-tenant QoS axis: the blk-mq elevators keep per-tenant state that
# must stay engine-local (the raced replica test proves it), the SR-IOV
# driver hashes tenants onto functions/queue sets, and the tenant sweep
# fans hermetic cells — including the 10k-tenant fleet column on the
# sharded ScaleCluster — across the runner's workers. Race the queueing
# layers plus the sweep's determinism/isolation gates explicitly.
echo "== multi-tenant QoS axis (race: blockmq + qdma + tenant sweep) =="
go test -race -count=1 ./internal/blockmq/ ./internal/qdma/ ./internal/uifd/
go test -race -count=1 -run 'TestTenantSweep|TestQoSScheduler' \
    ./internal/experiments/ ./internal/blockmq/
go test -race -count=1 -run 'TestTenant|TestRunTenants|TestQoSShapes|TestCompactHistogram|TestHistogram|TestFairness' \
    ./internal/metrics/ ./internal/fio/

if [ "${1:-}" != "-short" ]; then
    # One iteration of every benchmark with allocation counts: catches
    # bit-rot in the perf harness and regressions in the zero-alloc
    # invariants without a full measurement run.
    echo "== benchmark smoke (-benchtime=1x) =="
    go test -run '^$' -bench . -benchtime=1x -benchmem ./...
fi

echo "== delibabench self-test =="
go run ./cmd/delibabench -selftest -iters 3

if [ "${1:-}" != "-short" ]; then
    # Machine-readable evidence artifact: per-family serial-vs-parallel
    # digests and wall-clock plus erasure-kernel micro-benchmarks. Fails if
    # any family digests differently under parallel execution.
    echo "== benchmark report (BENCH_pr2.json) =="
    go run ./cmd/delibabench -json BENCH_pr2.json

    # Cache tier evidence artifact: hit-rate sweep speedups, the 10x p50
    # target on the 90%-hot workload, serial-vs-parallel digest equality
    # and the zero acknowledged-write-loss crash contract.
    echo "== cache tier report (BENCH_pr7.json) =="
    go run ./cmd/delibabench -quick -cachebench BENCH_pr7.json

    # Replication head-to-head evidence artifact: primary-copy vs per-PG
    # Raft availability under faults, with the strictly-higher-availability
    # acceptance bar and serial-vs-parallel digest equality asserted.
    echo "== replication head-to-head report (BENCH_pr9.json) =="
    go run ./cmd/delibabench -quick -raftbench BENCH_pr9.json

    # Multi-tenant QoS evidence artifact: the noisy-neighbor head-to-head
    # (dmclock victim p99 near the isolated baseline, qos-none blown out,
    # fairness improved) plus serial-vs-parallel digest equality at quick
    # scale with relaxed gates; the full-scale gates run out of band.
    echo "== multi-tenant QoS report (BENCH_pr10.quick.json) =="
    go run ./cmd/delibabench -quick -tenantbench BENCH_pr10.quick.json

    # Trace smoke: emit the traced sweep and validate it against the
    # Chrome/Perfetto trace_event schema with the offline tool.
    echo "== trace smoke (-trace + dfxtool trace validate) =="
    go run ./cmd/delibabench -quick -trace TRACE_pr8.json
    go run ./cmd/dfxtool trace validate TRACE_pr8.json
    go run ./cmd/dfxtool trace summary TRACE_pr8.json
fi

echo "CI OK"
