#!/bin/sh
# Pre-merge verification: vet + build everything, then run the race
# detector over the emulator and memory substrate (full suite — the per-Tx
# hash indexes in internal/htm are single-owner by design, and the race
# detector over them is the cheapest guard that an emulator change didn't
# introduce unsynchronized shared state), plus a -short race pass over the
# tree implementations and the harness. The short pass includes the
# wall-clock linearizability recordings, which are exactly the code paths
# where an unsynchronized tree would race.
#
# The internal/htm race pass covers the one fallback lock and both ways of
# waiting on it (retry into it, or the device's lemming wait,
# htm.Config.LemmingWait); the kvserver pass races a server — hardened
# with that wait, as every DB Open builds is — against real concurrent
# sockets.
#
# Host threads (goroutines on vclock.HostProc) ride these same passes:
# their htm-level tests (TestHost*) run in the internal/htm line, the
# per-tree LinearizabilityHost/ConcurrentSharedHost subtests run in the
# -short tree line, and the root host API tests run in the final line. CI
# additionally runs them in a dedicated host-backend-race job.
set -eux

# A -run filter that no longer matches anything passes silently; catch that
# before the lanes below (and CI's) are trusted.
"$(dirname "$0")/check-run-filters.sh"

go vet ./...
go build ./...
go test -race ./internal/htm/ ./internal/simmem/ ./internal/shard/
go test -race -short ./internal/core/ ./internal/tree/... ./internal/harness/
# eunobench's open-loop executor pool (swarm, swarmchaos, reshardchaos):
# workers, generator and the mid-run event share one timeline.
go test -race -short ./cmd/eunobench/
# The kvserver pass now serves a sharded Cluster: real concurrent sockets
# race the router, per-connection Sessions, the merged cross-shard SCAN,
# and the aggregated STATS path.
go test -race ./examples/kvserver/
# Durability engine under the race detector: the group-commit leader
# protocol (the waiting writer flushes; the WAL starts no goroutine) and
# snapshot rotation are its cross-thread shared state; the -short
# crash-fuzzer pass races recovery against the checker as well.
go test -race -short ./internal/durable/...
# Observability layer: the heatmap/trace observers receive events from
# every wall-clock worker goroutine concurrently, and the root package's
# observer tests (TestObserverConcurrentWall and friends) drive exactly
# that delivery shape against a live DB.
go test -race ./internal/obs/
# Root package -short pass includes the Cluster: routing, cross-shard
# range merge (ordering/dedup under concurrent inserts, iterator-leak
# check), joined per-shard error surfacing, and durable cluster recovery.
go test -race -short .
