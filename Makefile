GO ?= go

.PHONY: all build fmt-check vet cross-build test race verify clean bench bench-smoke fuzz-smoke repo-bench-smoke exp-smoke doc-refs receipt scale-smoke full-scale-smoke full-scale cluster-smoke metrics-smoke profile

all: verify

build:
	$(GO) build ./...

# fmt-check fails when gofmt would rewrite any file of the repository,
# bench/ (its own module, which go vet ./... never sees) included.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# cross-build vets and builds every package for targets CI does not run
# on: linux/arm64 takes the batched DNS socket path with its own syscall
# numbers, the other three the one-packet fallback (and 32-bit ints).
cross-build:
	@set -e; for t in linux/arm64 linux/386 darwin/arm64 windows/amd64; do \
		echo "== $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) vet ./...; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) build ./...; \
	done

test:
	$(GO) test ./...

# race is the gate the fault-injection tests are written for: the census
# retry loop, the store hot-swap and the DNS front-end's snapshot swaps
# under load all exercise real concurrency.
# internal/experiments replays full campaigns and needs more than the
# default 10m per-package budget under the race detector.
race:
	$(GO) test -race -timeout 30m ./...

verify: fmt-check vet build race

# bench runs the set-up (world build, BGP table, hitlist), probe-path
# (distance kernel, hash states, city index, span resolution), prober,
# detection-kernel, census, fleet (a lease's
# codec, a fleet round beside its one-process twin) and serving
# microbenchmarks with allocation reporting; compare runs with benchstat
# if available.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/geo ./internal/detrand ./internal/cities ./internal/netsim ./internal/bgp ./internal/hitlist ./internal/prober ./internal/core ./internal/census ./internal/cluster ./internal/store ./internal/route .

# bench-smoke is the CI gate: every benchmark must still run (one
# iteration), catching bit-rot in the benchmark harness itself.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/geo ./internal/detrand ./internal/cities ./internal/netsim ./internal/bgp ./internal/hitlist ./internal/prober ./internal/core ./internal/census ./internal/cluster ./internal/store ./internal/route .

# fuzz-smoke gives every fuzz target in the module five seconds: enough to
# replay its seed corpus and mutate a few hundred thousand inputs, so a
# decoder or the detection kernel (FuzzDetect: split scan == reference
# pair scan) that breaks on a nearby input fails CI, not a later user.
# go test -fuzz takes one package and one target at a time.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg; \
		done; \
	done

# repo-bench-smoke compiles and tests bench/, the repository benchmark
# (BENCHMARK.json). It is its own Go module, so the root build and test
# never see it: an API break in what it compiles against — census
# campaigns, the cluster coordinator, the store — shows up only here.
repo-bench-smoke:
	cd bench && $(GO) test ./...

# exp-smoke runs the paper-reproduction binary end to end on a small
# lab: cmd/experiments must build the lab, print the three selected
# reports and exit 0. It measures nothing; performance is bench/.
exp-smoke:
	@out=$$($(GO) run ./cmd/experiments -unicast24s 3000 -censuses 2 -exp table1,fig4,fig10) || exit 1; \
	echo "$$out"; \
	for exp in table1 fig4 fig10; do \
		echo "$$out" | grep -q "\[$$exp in " || { echo "exp-smoke: no $$exp report" >&2; exit 1; }; \
	done

# doc-refs fails when README.md, DESIGN.md, EXPERIMENTS.md, the verify
# recipe under .claude/skills or a docs/bench-history/*-costs.md
# derivation names a `make <target>` this Makefile does not have, a
# cmd/<name> that is not a directory, or anything else scripts/doc_refs.sh
# checks, and when README.md or DESIGN.md outgrows its line cap.
doc-refs:
	./scripts/doc_refs.sh

# receipt prints what a deletion is measured in: commands under cmd/,
# flag definitions and raw non-test Go lines outside bench/.
receipt:
	./scripts/receipt.sh

# scale-smoke proves the span-pipelined executor's memory bound at the
# largest scale CI can afford: a 500k-/24 two-round campaign (~310k
# pruned targets) where probe spans fold into the flat-slab combined
# matrix as they land (cmd/census's default path), run under a
# GOMEMLIMIT below the ~620 MiB that two dense rounds would cost, with
# -max-heap-mib failing the run if the sampled peak ever reaches that
# dense footprint.
scale-smoke:
	GOMEMLIMIT=576MiB $(GO) run ./cmd/census -unicast24s 500000 -censuses 2 \
		-max-heap-mib 620

# full-scale-smoke is the probe-rate regression gate at the largest scale
# CI can afford: a 1.25M-/24 two-round campaign (~760k pruned targets,
# span-pipelined like every cmd/census run that does not ask for whole
# runs) under a GOMEMLIMIT below the two dense rounds it never holds,
# where -rate-baseline-targets first measures a 20k-target pilot probing
# run in the same process and the run fails unless the campaign's
# aggregate probe rate stays within 2x of it. The pre-span probe path
# collapsed 3.4x here once the target list outgrew its RTT memo.
full-scale-smoke:
	GOMEMLIMIT=1380MiB $(GO) run ./cmd/census -unicast24s 1250000 -censuses 2 \
		-max-heap-mib 1510 -rate-baseline-targets 20000

# full-scale is the paper's Sec. 3 census on one box, on demand and never
# in CI: 11M unicast /24s prune to the ~6.6M responsive targets, two
# 261-VP rounds (~3.5G probes) run span-pipelined under a GOMEMLIMIT at
# 75% of the 13.9 GiB two dense rounds would cost. It needs ~10 GiB of
# memory and tens of minutes. The log carries each round's probing wall
# and probes, the pilot and campaign probe rates, the analysis wall and
# the sampled peak heap; the run fails if the peak reaches the dense
# footprint or the campaign probes more than 2x slower than the
# 20k-target pilot. Nothing is written down: these numbers compare only
# with another run on the same machine.
full-scale:
	GOMEMLIMIT=9950MiB $(GO) run ./cmd/census -unicast24s 11000000 -censuses 2 \
		-max-heap-mib 13266 -rate-baseline-targets 20000

# cluster-smoke proves the distributed control plane end to end, in two
# legs (scripts/cluster_smoke.sh). First a 4-agent in-process census over
# net.Pipe with forced churn (every agent's connection is severed after 25
# streamed rows frames and respawned) and injected VP crashes, on one span
# narrow enough that leases carry batches of units: it fails unless the
# `cluster:` line counts more units than leases. Then real coordinator
# and agent processes over TCP loopback, one agent killed with SIGKILL
# mid-census. In both, -verify fails the run unless the combined matrix,
# greylist, and analysis outcomes are byte-identical to a zero-fault
# in-process campaign.
cluster-smoke:
	GO=$(GO) ./scripts/cluster_smoke.sh

# metrics-smoke boots anycastd (with its DNS front-end) from a file
# `census -snapshot` wrote, reloads a second census and rejects garbage
# over the file, then runs a `census -local 2` coordinator; it scrapes
# GET /metrics on both and fails unless every required series family is
# present: store, reload, route and per-endpoint HTTP on anycastd; probe,
# census and cluster on the coordinator.
metrics-smoke:
	./scripts/metrics_smoke.sh

# profile captures CPU and heap profiles of a full census run, and five
# single-benchmark CPU profiles: probe.pprof, the prober's dense-span loop alone
# (BenchmarkProberRun) - the attribution in docs/bench-history/probe-costs.md -
# session.pprof, what a vantage point costs: its session build and the
# ranking an anycast probe pays per list length (BenchmarkBuildSession,
# BenchmarkProbeICMPAnycast) - the one behind docs/bench-history/vp-costs.md -
# round.pprof, a 261-VP round over one span through the pipelined
# executor, span plans shared (BenchmarkRoundPipelined) - and fleet.pprof,
# the same shape of rounds leased to two agents over net.Pipe
# (BenchmarkFleetRound), the one docs/bench-history/lease-costs.md reads -
# and world.pprof, census-wide's world build (BenchmarkNew/unicast25k),
# the one behind docs/bench-history/memory-costs.md's set-up figures.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof -top probe.pprof`.
profile:
	$(GO) run ./cmd/census -unicast24s 8000 -censuses 2 -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) test -run '^$$' -bench ProberRun -cpuprofile probe.pprof -o prober.test ./internal/prober
	$(GO) test -run '^$$' -bench 'BuildSession|ProbeICMPAnycast' -cpu 1 -cpuprofile session.pprof -o netsim.test ./internal/netsim
	$(GO) test -run '^$$' -bench RoundPipelined -cpu 1 -cpuprofile round.pprof -o census.test ./internal/census
	$(GO) test -run '^$$' -bench 'FleetRound$$' -cpu 1 -cpuprofile fleet.pprof -o cluster.test ./internal/cluster
	$(GO) test -run '^$$' -bench 'New/unicast25k' -cpu 1 -cpuprofile world.pprof -o netsim-world.test ./internal/netsim

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof probe.pprof prober.test session.pprof netsim.test round.pprof census.test fleet.pprof cluster.test world.pprof netsim-world.test
