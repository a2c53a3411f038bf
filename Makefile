# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync.

GO ?= go
# Benchmark duration for `make bench`. CI smokes with 1x; use 2s+ on an
# idle machine for numbers worth comparing.
BENCHTIME ?= 2s

.PHONY: all build test short vet fmt bench

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# bench regenerates BENCH_oracle.json for the current tree at
# GOMAXPROCS=2, the value the CI bench gate pins. To refresh
# the committed before/after artifact, first capture a baseline on the
# pre-change commit:
#   git worktree add .bench-base <base-commit>
#   (cd .bench-base && GOMAXPROCS=2 ../scripts/bench.sh -benchtime $(BENCHTIME) -count 5 -o /tmp/baseline.json)
#   git worktree remove --force .bench-base
#   GOMAXPROCS=2 scripts/bench.sh -benchtime $(BENCHTIME) -count 5 -baseline /tmp/baseline.json -o BENCH_oracle.json
bench:
	GOMAXPROCS=2 scripts/bench.sh -benchtime $(BENCHTIME) -count 5 -o BENCH_oracle.json
