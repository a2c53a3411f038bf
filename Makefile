# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync.

GO ?= go
# Benchmark duration for `make bench`. CI smokes with 1x; use 2s+ on an
# idle machine for numbers worth comparing.
BENCHTIME ?= 2s

.PHONY: all build test short vet fmt bench loc

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

# loc prints the non-test Go lines outside bench/, the count ROADMAP
# tracks, per directory and in total. It lists files with git, so
# untracked build output (.bench_build/'s module cache) is not counted.
LOC_FILES = git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/'
loc:
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); if (d == $$2) d = "."; n[d] += $$1 } END { for (d in n) printf "%6d  %s\n", n[d], d }' | sort -k2
	@printf '%6d  total\n' $$($(LOC_FILES) | xargs cat | wc -l)
