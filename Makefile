GO ?= go

# The tracked microbenchmarks: `make bench` measures them, `make
# bench-once` (part of `make check` and the CI test job) runs each for a
# single iteration so none can stop compiling or start failing unseen.
BENCH_REGEX = NearestK|Pairwise1k|QueryTop10|QueryFullSort|SearchPartialDepth|SearchConcept|EngineBuild|EngineSearch|SymMulT|MulTTiled|SubspaceIteration|OrthonormalizeCholQR|LeftSVD|UnfoldingGram|ProjectedUnfold|DecomposeSmall|SweepCost|SweepDeepCore|HOSVDInitWide
BENCH_PKGS = ./internal/embed/ ./internal/ir/ ./internal/retrieve/ ./internal/mat/ ./internal/tensor/ ./internal/tucker/ .

.PHONY: build test bench bench-once bench-check vet vet-custom check cross fmt fuzz lint e2e-replicate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-custom runs the repo's own analyzer suite (docs/ANALYSIS.md):
# cubelsivet enforces the determinism, concurrency and serving
# invariants that generic linters cannot see. It is driven through the
# real `go vet -vettool` protocol, so findings come with standard
# file:line positions and results are cached per package.
vet-custom:
	$(GO) build -o bin/cubelsivet ./cmd/cubelsivet
	$(GO) vet -vettool=$(abspath bin/cubelsivet) ./...

# check is the full local gate: formatting idiom, both vet suites,
# lint, the race-enabled tests, one iteration of every tracked
# microbenchmark, the benchmark module, and the arm64 cross-build.
check: vet-custom lint test bench-once bench-check cross

# cross builds and vets for arm64, where internal/mat compiles its
# portable leaves instead of the amd64 assembly (leaf_other.go), so the
# build-tagged files cannot rot on an amd64-only CI. The purego build tag
# selects the same portable leaves on amd64, so the last step runs the
# code arm64 runs against the pinned factor, model and answer hashes.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat
	$(GO) vet -tags purego ./internal/mat
	$(GO) test -tags purego -run 'Oracle|Golden|Parity|BitForBit' ./internal/tucker ./internal/core .

bench-once:
	$(GO) test -run='^$$' -bench='$(BENCH_REGEX)' -benchtime=1x $(BENCH_PKGS)

# bench-check vets, tests and smoke-runs the nested benchmark module
# (bench/, which `go build ./... && go test ./...` never compiles), so a
# change under internal/ that breaks what it links against fails here.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...
	$(GO) run -C bench repro/bench -smoke

# lint mirrors the CI lint job (.golangci.yml); falls back to go vet
# when golangci-lint is not installed locally.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; running go vet only"; \
		$(GO) vet ./...; \
	fi

test: vet
	$(GO) test -race ./...

# bench measures the tracked microbenchmarks. The end-to-end benchmark
# is `go run -C bench repro/bench` (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_REGEX)' -benchmem $(BENCH_PKGS)

# e2e-replicate runs one cubelsiserve writer and two read-only replicas,
# streams a delta log through /stream, and asserts both replicas converge
# on spool files byte-identical to the writer's — including a killed
# replica catching up after restart.
e2e-replicate:
	./scripts/e2e_replicate.sh

# fuzz exercises the trust-boundary fuzz targets briefly: the model
# decoder, the POST /search body, the GET /search and /related query
# strings, the POST /stream NDJSON body, and the headers and body of a
# replica's model pull. FuzzStreamPost caps input
# minimization at 5s: inputs grown from its 1 MiB seed otherwise spend
# most of the 30s being minimized instead of fuzzed.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=30s ./internal/codec/
	$(GO) test -run='^$$' -fuzz='^FuzzSearchPost$$' -fuzztime=30s ./cmd/cubelsiserve/
	$(GO) test -run='^$$' -fuzz='^FuzzSearchGet$$' -fuzztime=30s ./cmd/cubelsiserve/
	$(GO) test -run='^$$' -fuzz='^FuzzStreamPost$$' -fuzztime=30s -fuzzminimizetime=5s ./cmd/cubelsiserve/
	$(GO) test -run='^$$' -fuzz='^FuzzPullHeaders$$' -fuzztime=30s ./internal/replicate/

fmt:
	gofmt -l -w .
