# Standard verify entry point: `make check` is what CI and pre-commit
# runs — build everything, gate on gofmt, vet, then the full test suite
# under the race detector (the server and live-index concurrency tests
# depend on it).

GO ?= go

.PHONY: check build fmt-check vet test test-race test-shuffle race-hot bench bench-build bench-json bench-shard bench-query fuzz-short experiments docs-check

check: build fmt-check vet test-race docs-check

build:
	$(GO) build ./...

# Fails (listing the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation gates: every registered /metrics family must be
# documented in docs/OBSERVABILITY.md, and relative markdown links in
# README.md and docs/ must resolve (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

# Tier-1 test run (what the paper-reproduction harness requires).
test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Order-independence gate: run every test twice in a shuffled order, so
# tests leaking state into package-level singletons (or depending on a
# sibling having run first) fail here instead of flaking in -race runs.
test-shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# The concurrency-heavy packages only — a faster race pass for iterating
# on the live (copy-on-write) index and the HTTP server.
race-hot:
	$(GO) test -race ./internal/core ./internal/server

bench:
	$(GO) test -bench=. -benchmem

# Construction-pipeline benchmarks: sequential insert loop vs the
# two-pass parallel build, plus the decomposed-table build. CI runs this
# with BENCH_BUILD_TIME=1x as a smoke test; use the default (or longer)
# on a multi-core machine to measure scaling.
BENCH_BUILD_TIME ?= 1s

bench-build:
	$(GO) test -run '^$$' -bench 'BenchmarkBuild' -benchmem \
		-benchtime $(BENCH_BUILD_TIME) .

# The core window/disk/live/build benchmarks as a committed JSON report:
# writes the next BENCH_<n>.json so runs across revisions sit side by
# side and diff cleanly (see cmd/benchjson).
BENCH_JSON_PATTERN ?= BenchmarkTable5Window|BenchmarkDiskQueries|BenchmarkLiveApply|BenchmarkBuild
BENCH_JSON_TIME ?= 0.2s

bench-json:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench '$(BENCH_JSON_PATTERN)' -benchmem \
		-benchtime $(BENCH_JSON_TIME) . | /tmp/benchjson

# Sharded-engine benchmarks as a committed JSON report (BENCH_3.json):
# scatter-gather window queries and live mutation throughput at 1/2/4/8
# shards. With the paged tile directory a publish copies only the pages
# it touches, so the Apply series now shows what the parallel apply
# loops add on top of a cheap 1-shard publish (docs/SHARDING.md).
BENCH_SHARD_TIME ?= 1s

bench-shard:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkSharded' -benchmem \
		-benchtime $(BENCH_SHARD_TIME) . | /tmp/benchjson -o BENCH_3.json

# Adaptive-kernel benchmarks as a committed JSON report (BENCH_4.json):
# the count pushdown vs the streamed reference across query sizes, the
# chunked parallel window kernel at forced worker counts, and the
# existence probe. The pushdown series is the acceptance measurement —
# large count-only windows must beat the streamed baseline by >= 10x.
# CI runs this with BENCH_QUERY_TIME=1x as a smoke test.
BENCH_QUERY_TIME ?= 1s

bench-query:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkWindowCountFast|BenchmarkWindowParallel|BenchmarkIntersects' \
		-benchmem -benchtime $(BENCH_QUERY_TIME) . | /tmp/benchjson -o BENCH_4.json

# Short fuzz pass over every fuzz target (CI runs this): seconds per
# target, catching format-level regressions without a long campaign.
FUZZTIME ?= 10s

fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzWindow$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzV1Envelope$$' -fuzztime $(FUZZTIME) ./internal/server

experiments:
	$(GO) run ./cmd/experiments -exp all
