GO ?= go

.PHONY: all vet lint allocgate tidy-check build test race bench perfbench-test fuzz cover cover-html check

all: check

vet:
	$(GO) vet ./...

# bin/hbovet is the project vettool: the eight custom analyzers (detlint,
# obslint, ctxlint, errlint, locklint, copylint, leaklint, codeclint — see
# internal/analysis/ and DESIGN.md §11/§16) compiled into a unitchecker
# binary that `go vet -vettool` drives. The binary is cached under bin/ and
# only rebuilt when analyzer (or vendored x/tools) sources change.
HBOVET := bin/hbovet
HBOVET_SRCS := $(shell find cmd/hbovet internal/analysis third_party -name '*.go' -not -path '*/testdata/*') go.mod

$(HBOVET): $(HBOVET_SRCS)
	@mkdir -p bin
	$(GO) build -o $(HBOVET) ./cmd/hbovet

# lint runs the standard vet suite plus the custom analyzers over the whole
# module, then enforces the suppression budget: the number of
# `//lint:allow <analyzer> <reason>` comments must equal the count
# committed in lint.budget, so adding (or removing) a suppression forces a
# visible lint.budget change in the same diff. Test files are excluded —
# most analyzers exempt them anyway, and lintutil's own parser tests embed
# directive strings as fixtures.
LINT_NAMES := detlint|obslint|ctxlint|errlint|locklint|copylint|leaklint|codeclint
lint: $(HBOVET)
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(HBOVET)) ./...
	@n=$$(grep -rnE --include='*.go' --exclude='*_test.go' '(^|[[:space:]])//lint:allow ($(LINT_NAMES)) ' . 2>/dev/null | grep -v testdata | grep -v third_party | wc -l); \
	budget=$$(cat lint.budget); \
	if [ "$$n" -ne "$$budget" ]; then \
		echo "lint: $$n suppression(s) in tree but lint.budget says $$budget — update lint.budget in the same change (and justify it in the PR)"; \
		exit 1; \
	fi; \
	echo "lint: clean ($$n suppression(s), within budget; grep -rn 'lint:allow' for the list)"

# allocgate recompiles the //hbo:noalloc packages with escape diagnostics
# and fails on any heap escape in an annotated hot-path function.
allocgate:
	$(GO) run ./cmd/allocgate

# tidy-check fails if go.mod/go.sum drift from what `go mod tidy` would
# write — CI runs it so the x/tools pin cannot rot silently.
tidy-check:
	$(GO) mod tidy -diff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark with allocation stats and also records a
# machine-readable snapshot (BENCH_<date>.json) via cmd/benchjson, so perf
# regressions are diffable across commits.
bench:
	$(GO) test -bench=. -benchmem ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_$$(date +%F).json

# perfbench-test runs the end-to-end benchmark's own test (every workload at
# a tiny size, with its bit-for-bit replay checks). perfbench/ is a separate
# module that `go test ./...` at the root does not enter.
perfbench-test:
	cd perfbench && $(GO) test ./...

# fuzz gives each native fuzz target a time-boxed run (override with
# FUZZTIME=2m etc.). Checked-in seed corpora live under testdata/fuzz/; any
# crasher Go minimizes is written there too, so it reproduces in plain
# `go test` forever after.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzOBJParse -fuzztime=$(FUZZTIME) ./internal/mesh/
	$(GO) test -run=^$$ -fuzz=FuzzSessionRequestDecode -fuzztime=$(FUZZTIME) ./internal/edge/sessiond/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME) ./internal/edge/sessiond/
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/edge/sessiond/wire/
	$(GO) test -run=^$$ -fuzz=FuzzMeshDecode -fuzztime=$(FUZZTIME) ./internal/edge/sessiond/wire/

# cover runs the full suite with coverage and prints the per-function
# summary; the HTML report lands in cover.html. It then enforces a coverage
# floor over the determinism- and serving-critical packages
# (internal/edge/... including sessiond, internal/core, the optimizer
# stack internal/bo/... with the policy registry, internal/experiments/...
# with the arena and the contend model, and internal/loadgen with the
# mobility/link model) so the regression battery cannot silently
# rot; raise the floor as coverage grows, never lower it casually.
COVER_FLOOR ?= 81.3
COVER_PKGS := ./internal/edge/... ./internal/core ./internal/bo/... ./internal/experiments/... ./internal/loadgen
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -5
	$(GO) tool cover -html=cover.out -o cover.html
	$(GO) test -coverprofile=cover.edge.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.edge.out | tail -1 | awk '{sub(/%/,"",$$NF); print $$NF}'); \
	echo "cover: $(COVER_PKGS) at $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "cover: coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# cover-html regenerates only the browsable report (cover.html is
# .gitignore'd; this is the quick local loop, without the floor check).
cover-html:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@echo "cover-html: wrote cover.html"

# check is the pre-commit gate: standard vet, the custom analyzer suite,
# the zero-alloc gate, full build, and the test suite (race is the slower
# CI-side superset).
check: vet lint allocgate build test
