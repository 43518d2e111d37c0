# Convenience targets mirroring the CI jobs (.github/workflows/ci.yml).

.PHONY: all build test race race-concurrency lint lint-audit ci fuzz profile bench bench-mapping benchdiff check-paranoid check-replay smoke-rubixd

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency hammer mirror of CI's race matrix: the packages where the
# mutexes live, twice, so interleavings get a second roll of the dice.
race-concurrency:
	go test -race -count=2 ./internal/sim/... ./internal/metrics/... ./internal/check/...

# The full local gate: vet plus the project invariants suite (determinism,
# bitwidth, seedflow, panicpolicy, observereffect, addrwidth, errdiscard,
# lockdiscipline, goroutineescape, goroutineleak, waitgroup, and the
# domain/unit analyzers addrspace, unitflow, hotalloc — see internal/lint).
# rubixlint -fix applies the suite's suggested fixes, including the
# addrspace `// addr:` annotation autofix.
lint:
	go vet ./...
	go run ./cmd/rubixlint ./...

# Guard hygiene: every //lint:allow in the tree must still suppress a live
# finding, carry a justification, and name a registered analyzer. Fails on
# stale guards so suppressions rot is caught at review time.
lint-audit:
	go run ./cmd/rubixlint -allow-audit ./...

ci: build test race lint lint-audit

# Fuzz smoke: every fuzz target for 15 s — the row table against a Go map,
# the Result decoder on arbitrary bytes, and the K-Cipher round trip.
# `go test -fuzz` takes one package and one target per run; plain `go test`
# replays only the seed corpora.
fuzz:
	go test ./internal/rowtable -run '^$$' -fuzz '^FuzzRowTable$$' -fuzztime 15s
	go test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 15s
	go test ./internal/kcipher -run '^$$' -fuzz '^FuzzKCipherRoundTrip$$' -fuzztime 15s

# Refresh the committed benchmark baseline for the sim hot path
# (mapping/cipher/DRAM/core micro-benchmarks plus the end-to-end run).
# The JSON is a reference point for eyeballing regressions, not a CI gate —
# absolute numbers depend on the machine.
bench:
	go test -bench . -benchmem -run '^$$' ./... | go run ./cmd/benchjson > BENCH_sim.json

# Just the translation microbenchmarks: scalar and batched mapper surfaces
# and the K-Cipher ladder. Quick feedback when touching mapping/cipher code
# without re-running the end-to-end sweeps.
bench-mapping:
	go test -bench 'Map|Cipher|Encrypt|Decrypt' -benchmem -run '^$$' \
		./internal/mapping ./internal/kcipher ./internal/core

# Regression gate against the committed baseline: generous ns/op tolerance
# (wall time is machine-dependent), strict allocs/op (allocation counts are
# deterministic). -benchtime 100ms keeps the fresh run bounded; per-op
# numbers stay comparable to the 1s baseline.
benchdiff:
	go test -bench . -benchmem -benchtime 100ms -run '^$$' ./... \
		| go run ./cmd/benchjson | go run ./cmd/benchdiff -baseline BENCH_sim.json

# Paranoid-mode gate: the Figure-3 smoke sweep with the runtime invariant
# checker attached to every simulation (sampled bijection spot-checks, ACT
# conservation, refresh/tRC clocks, Rubix-D epoch completeness). Any
# violation fails the run.
check-paranoid:
	go run ./cmd/experiments -exp fig3 -scale 0.004 -workloads mcf,xz \
		-mixes=false -check paranoid

# Differential-replay gate: metamorphic relations across whole runs.
# mcf/coffeelake exercises seed-invariance + scale-linearity on a
# deterministic mapping; mcf/rubixs-gs4 exercises the cipher-equivalence
# relation (and correctly skips seed-invariance for a seed-keyed mapping).
# -scale 0.01 is calibrated: smaller runs have too few accesses for the
# default 5% drift tolerance (see internal/check.Tolerance).
check-replay:
	go run ./cmd/rubixsim -workload mcf -mapping coffeelake -mitigation none \
		-trh 128 -scale 0.01 -cores 2 -check replay
	go run ./cmd/rubixsim -workload mcf -mapping rubixs-gs4 -mitigation none \
		-trh 128 -scale 0.01 -cores 2 -check replay

# End-to-end sweep-service gate: start rubixd with a persistent store, run
# a small batched sweep, SIGTERM-drain it, restart on the same store, and
# assert the identical sweep is served byte-for-byte with ZERO fresh
# simulations (counters read from /metrics?format=json). Needs curl + jq.
smoke-rubixd:
	bash scripts/smoke_rubixd.sh

# Profile a mid-size hot configuration: CPU profile and metrics snapshot
# land in results/, and a live pprof + /metrics endpoint serves on :6060
# for the duration of the run (`go tool pprof results/cpu.pprof`).
profile:
	mkdir -p results
	go run ./cmd/rubixsim -workload mcf -mapping coffeelake -mitigation aqua \
		-trh 128 -scale 0.2 -pprof localhost:6060 \
		-cpuprofile results/cpu.pprof -metrics-json results/metrics.json -metrics
