GO ?= go

.PHONY: all build test race lint fmt fuzz-seed loc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo's invariant linter (see docs/invariants.md) plus the vet
# checks CI enforces. nilness is not in `go vet`; hsqplint ships its own.
lint:
	$(GO) vet ./...
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/hsqplint ./...

fmt:
	gofmt -l -w .

# Replay the wire-format and serving-protocol fuzz seed corpora under the
# race detector, mirroring the CI race matrix.
fuzz-seed:
	$(GO) test -race ./internal/ser -run '^FuzzCodecRoundTrip$$'
	$(GO) test -race ./internal/serve -run '^FuzzServeFrames$$'

# Non-test Go lines outside benchmark/ and the linter's testdata: the
# number CHANGES.md reports before and after a simplification.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './internal/lint/testdata/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
