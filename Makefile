# Developer and CI entry points. `make ci` is the gate: vet, build,
# full test suite under the race detector.

GO ?= go

.PHONY: all build vet fmt-check test race bench serve trace-smoke chaos-smoke warmstart-smoke speak-smoke bench-smoke slo-smoke fuzz-smoke overload-smoke perfbench-test ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any Go file (the nested perfbench module included) is not
# gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is its own module (perfbench/go.mod, which
# replaces muve with ../), so ./... never reaches it; vet and test it
# here so a root refactor cannot break the benchmark unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Serving-layer micro-benchmarks, the end-to-end plot and voice ask
# benches, and the greedy and ILP planners on fixed instances.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkServe|BenchmarkEndToEndAsk|BenchmarkAskVoice|BenchmarkExecShared|BenchmarkGreedySolver20Candidates|BenchmarkILPSolver8Candidates' -benchmem .

# Run the demo server with serving defaults.
serve:
	$(GO) run ./cmd/muveserver

# One traced query through the full pipeline; fails if any stage
# recorded no spans, i.e. the instrumentation came unwired.
trace-smoke:
	$(GO) run ./cmd/muvebench -trace -trace-runs 1

# Seeded fault injection against the serving engine's
# degradation ladder (every fifth request asks for a voice answer, so
# the solver faults hit the plot ladder and the speak faults the voice
# ladder) AND the HTTP transport below the handler; fails
# if any injected fault escapes (a request that neither answers nor
# fast-fails 503, an unrecovered panic, or transport damage the client
# could mistake for a clean answer), if a draining engine fails to
# shed new planning work with 503 or closing it cancels no in-flight
# solve (the drain's requests are held in the solver stage until the
# engine closes), if any fallback is blamed on stage
# "unknown" (every request is traced, as muveserver traces it), or if
# fewer panics were contained and counted than were injected. The seed
# fixes the fault mix, not which request gets which fault: the 8
# workers draw from one generator, so counts move a little run to run.
# The second run faults the nlq stage every planning rung shares, so
# the exact rung's breaker trips on a shared-stage streak while greedy
# keeps answering.
chaos-smoke:
	$(GO) run ./cmd/muvebench \
		-chaos "solver:lat=3s@0.4,err=0.2;speak:lat=3s@0.4,err=0.2;nlq:panic=0.05;http:partial=0.1,garbage=0.1,slowwrite=5ms@0.2,reset=0.05" \
		-chaos-seed 7 -chaos-requests 120
	$(GO) run ./cmd/muvebench -chaos "nlq:err=0.5" -chaos-seed 7 -chaos-requests 120

# Session replay cold vs warm-started incremental planning; fails
# unless the warm arm reaches the cold arm's final cost in less solver
# time at equal-or-better cost.
warmstart-smoke:
	$(GO) run ./cmd/muvebench -warmstart -warmstart-budget 400ms -seed 1

# Voice answers planned by the exact fact-set ILP and the greedy
# fallback over the same utterances; fails if greedy ever achieves a
# strictly better objective than a provably optimal exact selection
# (which would mean the ILP formulation or cost accounting is wrong).
speak-smoke:
	$(GO) run ./cmd/muvebench -voice -voice-utterances 8 -seed 1

# Branch-and-bound scaling across explicit worker counts (the
# BenchmarkILPParallel instances); GOMAXPROCS is raised to the widest
# arm so every arm is recorded even on single-core runners. Fails if
# any arm proves a different optimum, or — on multi-core hosts — if a
# parallel arm is slower than sequential. Writes BENCH_solver.json.
bench-smoke:
	$(GO) run ./cmd/muvebench -scaling -scaling-workers 1,2,4 \
		-scaling-json BENCH_solver.json

# SLO engine end to end: replay a workload under chaos against a
# deliberately tight objective, and fail unless the burn-rate trip
# fired the flight recorder (>=1 incident bundle), every request
# answered or shed with 503, and the report is well formed.
slo-smoke:
	$(GO) run ./cmd/muvebench -slo "e2e:p99<5ms" \
		-slo-chaos "solver:lat=500ms@0.5,err=0.2" \
		-slo-requests 80 -slo-workers 4 -slo-expect-incidents 1

# Short fuzz runs over the two operator-facing grammars (chaos specs
# and SLO objectives), the shared-scan merge planner, the ILP solver
# against 0/1 enumeration, the template index against the string-keyed
# reference grouping, the phonetic top-k against the
# score-everything-then-sort reference, and the shared scan at 1–4
# workers against the serial scan and the row-at-a-time oracles.
# `go test -fuzz` takes one fuzzer per run, so the targets run
# sequentially; corpus finds land in testdata/fuzz and should be
# committed as regression seeds.
fuzz-smoke:
	$(GO) test ./internal/resilience -run '^$$' -fuzz FuzzParseChaos -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzParseObjectives -fuzztime 10s
	$(GO) test ./internal/merge -run '^$$' -fuzz FuzzSharedPlan -fuzztime 10s
	$(GO) test ./internal/ilp -run '^$$' -fuzz FuzzSolveAgainstBruteForce -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzTemplateIndex -fuzztime 10s
	$(GO) test ./internal/phonetic -run '^$$' -fuzz FuzzPhoneticTopK -fuzztime 10s
	$(GO) test ./internal/sqldb -run '^$$' -fuzz FuzzSharedScanWorkers -fuzztime 10s

# Closed-loop overload ramp to 2x calibrated capacity under transport
# chaos; fails unless no fault escapes, interactive p99 stays under the
# SLA, goodput at 2x holds >= 70% of the pre-saturation peak, and at
# least one hedge starts and wins. Writes BENCH_overload.json.
overload-smoke:
	$(GO) run ./cmd/muvebench -overload -overload-json BENCH_overload.json

ci: vet fmt-check build race perfbench-test trace-smoke chaos-smoke warmstart-smoke speak-smoke bench-smoke slo-smoke fuzz-smoke overload-smoke
