GO ?= go

.PHONY: all build test race allocs lint fmt fuzz-seed experiments loc allow-count

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The AllocsPerRun pins on the key path (hash kernels, batch headers,
# routing, decode, group-by, join, reused operator output, the engine's
# column pool and worker scratch, the network frame): an allocation
# creeping back fails here by name. The files are //go:build !race — the
# race detector allocates — so no -race. One pass of the decode,
# fused-stage, group-by and join-probe micro-benchmarks keeps them
# compiling and prints their rates and allocs/op.
allocs:
	$(GO) test -run 'Allocs' ./internal/storage ./internal/ser ./internal/op ./internal/exchange ./internal/engine ./internal/nic
	$(GO) test -run '^$$' -bench DecodeAll -benchtime 1x ./internal/ser
	$(GO) test -run '^$$' -bench '^Benchmark(Fused|GroupBy|JoinProbe)$$' -benchtime 1x ./internal/op

# The repo's invariant linter (see docs/invariants.md) plus the vet
# checks CI enforces. nilness is not in `go vet`; hsqplint ships its own.
lint:
	$(GO) vet ./...
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/hsqplint ./...

fmt:
	gofmt -l -w .

# Replay the wire-format, serving-protocol and batch-kernel fuzz seed
# corpora under the race detector, mirroring the CI race matrix.
fuzz-seed:
	$(GO) test -race ./internal/ser -run '^FuzzCodecRoundTrip$$'
	$(GO) test -race ./internal/serve -run '^FuzzServeFrames$$'
	$(GO) test -race ./internal/op -run '^FuzzBatchMatchesRow$$'

# Every experiment of internal/bench.Experiments at a small scale factor
# (about a minute): the CI smoke that keeps `hsqp experiment` from rotting.
experiments:
	$(GO) run ./cmd/hsqp experiment -id all -sf 0.005

# Non-test Go lines outside benchmark/ and the linter's testdata: the
# number CHANGES.md reports before and after a simplification.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './internal/lint/testdata/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# //lint:allow suppressions outside the linter's own sources and testdata.
# ALLOW_MAX is the committed ceiling and CI fails above it: lower it when a
# suppression goes, raise it only with the reason in docs/invariants.md.
ALLOW_MAX := 11
allow-count:
	@n=$$(grep -r --include='*.go' --exclude-dir=.bench_build -F '//lint:allow' . | grep -vc '^./internal/lint/'); \
	echo $$n; \
	[ $$n -le $(ALLOW_MAX) ] || { echo "//lint:allow count $$n exceeds the committed $(ALLOW_MAX)" >&2; exit 1; }
