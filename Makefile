GO ?= go

.PHONY: check fmt vet abenchvet build test bench bench-json race apicheck fuzz selfcheck

check: fmt vet abenchvet build test apicheck

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project vet suite: determinism invariants (no math/rand, no time.Now,
# no map-order-dependent iteration) over the verification core.
abenchvet:
	$(GO) run ./cmd/abenchvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dverify suite under the race detector legitimately runs long —
# the backend, batch, cone, sliced and static oracles each re-verify
# every fuzzed property on two engine configurations (~38 min on the
# 1-CPU CI container) — hence the explicit timeout. CI's selfcheck
# matrix covers dverify-under-race per push; this target is the full
# local sweep.
race:
	$(GO) test -race -timeout 60m ./internal/eval/ ./internal/llm/ ./internal/bench/ ./internal/dverify/ ./internal/faultinject/

# Differential self-check: seeded design/property fuzzing with
# cross-engine oracles. SEED/N are overridable: make selfcheck SEED=7
selfcheck:
	$(GO) run ./cmd/fuzzcheck -n $(or $(N),200) -seed $(or $(SEED),1)

# go-native fuzzing smoke over the checked-in seed corpora.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseVerilog -fuzztime 20s ./internal/verilog
	$(GO) test -run '^$$' -fuzz FuzzParseSVA -fuzztime 20s ./internal/sva

# Build a tiny consumer program against the public package from a temp
# module outside the repo, so internal/ leakage into public signatures
# fails the build.
apicheck:
	sh scripts/apicheck.sh

bench:
	$(GO) test -bench=. -benchmem .

# Disk-warm-vs-cold persistent store, static-vs-search, cone+sliced vs
# legacy, batched-vs-per-property and interp-vs-compiled measurements
# (sim ns/cycle, the FPV-bound full-corpus verification pass cold and
# warm with static and cone/sliced attribution plus the artifact-store
# disk columns, and end-to-end eval wall time), written to the checked-in
# BENCH_pr9.json. QUICK=1 selects CI smoke sizes. The baseline is
# BENCH_pr8.json's batched cold fpv pass on the same host (see
# EXPERIMENTS.md).
bench-json:
	$(GO) run ./cmd/perfbench $(if $(QUICK),-quick) -baseline-ms 175.24 -out BENCH_pr9.json

# Merge every checked-in BENCH_pr*.json into one markdown trajectory
# table (cold/warm full-corpus pass and design p95 per PR).
bench-trend:
	sh scripts/benchtrend.sh
