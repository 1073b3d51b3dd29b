#!/usr/bin/env bash
# Full per-PR verification: build, tests, vet, formatting, the
# allocation and equivalence guards on both the single-worker and the
# sharded pool, the repo's own nine-analyzer lint pass, the race
# detector over every package with concurrency, and a short fuzz run
# over the cache log replay. Mirrors the "Full verify" block in
# ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== allocation and equivalence guards at GOMAXPROCS=1 and 4"
# par's shared pool sizes itself once, at init, from GOMAXPROCS, so the
# serial and sharded dispatch paths each need their own test process:
# go test -cpu would rerun the tests against the one pool already built.
# -count=1 because the test cache does not key on GOMAXPROCS.
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run 'Alloc|Match|Equivalen|Shard|Parallel|Memoized' \
        ./internal/nn ./internal/core ./internal/autoenc ./internal/cnn
done

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== soterialint (nine analyzers, interprocedural facts)"
go run ./cmd/soterialint ./...

echo "== race suite"
go test -race ./internal/features ./internal/nn ./internal/core \
    ./internal/par ./internal/walk ./internal/autoenc ./internal/cnn \
    ./internal/obs ./internal/lint ./internal/store ./internal/fleet ./internal/registry

echo "== fuzz smoke: cache log replay"
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/store

echo "verify: OK"
