GO ?= go

.PHONY: all check build vet test race bench-test bench bench-e2e bench-compare bench-tables bench-serve bench-gateway loadgen-smoke gateway-smoke store-smoke ingest-smoke experiments fmt fmt-check fuzz-smoke cover-check

all: check

# Default verify entry point: formatting, vet, build, the full suite under
# the race detector, a short fuzz pass over the committed corpora, the
# coverage gate on the classification-engine packages, the benchmark
# module's build and unit tests (bench-test), and four end-to-end
# smokes with the real binaries: the single-server load harness
# (loadgen-smoke), the sharded fleet behind briq-gateway including a
# replica kill (gateway-smoke), the persistent aligned-corpus store across
# a server restart (store-smoke), and streaming re-crawl ingestion with
# fingerprint reuse (ingest-smoke). internal/runtime (the only place
# alignment runs in parallel), serving layer and server handlers are
# concurrency-bearing, so a non-race test run is not a complete check.
check: fmt-check vet build race bench-test fuzz-smoke cover-check loadgen-smoke gateway-smoke store-smoke ingest-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate: what CI runs on every change.
test: build vet
	$(GO) test ./...

# Race-enabled suite — the concurrency contract (shared read-only Pipeline,
# internal/runtime's per-goroutine clones, server handlers) is only trusted
# if this passes. Includes the concurrent-run stress test in internal/runtime
# and the shared-pipeline stress test in internal/core.
# internal/experiment is the slow package under the race detector: on 2
# vCPUs it took 350.6 s (23 s without -race), mostly TestRunTableVIISmall
# (143.3 s) and TestBriQBeatsBaselines (108.9 s); the tuning sweeps of
# TestTuneGraphAndFilter took 15.8 s. On small machines it can overrun go
# test's default 10m per-binary timeout, so the race target sets its own.
race:
	$(GO) test -race -timeout 30m ./...

# The benchmark under bench/ is its own Go module importing the root
# packages (core, filter, document, serve, store, ingest, ...), so `go build
# ./...` at the root never compiles it. This target builds it and runs its
# unit tests (-short skips the end-to-end smoke), so a root change that
# breaks the benchmark's build fails make check.
bench-test:
	cd bench && $(GO) test -short ./...

# Kernels against their reference oracles: cmd/briq-bench gates and times
# CSR Resolve against ReferenceResolve and the frozen classify engine against
# the pointer-tree reference, scores the rwr/ILP/greedy resolvers, and writes
# BENCH_pipeline.json. Run it as GOMAXPROCS=1 make bench to compare against
# the committed report. Speed of the served paths comes from bench-e2e.
bench:
	$(GO) run ./cmd/briq-bench -out BENCH_pipeline.json

# The served paths end to end: one traced run of the benchmark in bench/
# (every workload, built from this tree, checked answer by answer), folded
# into the committed BENCH_e2e.json: the machine record, every workload's
# end-to-end and per-layer metrics with units, its breakdown lines, and the
# correct/attempted/failed counts. The spans in trace.json are left out. A
# failed check exits non-zero before BENCH_e2e.json is touched.
bench-e2e:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	bash bench/run.sh -workload all -trace 1 -out $$tmp > $$tmp/stdout; \
	grep -v '^[#{]' $$tmp/stdout | jq -R '[splits(" +")]' \
		| jq -s 'reduce .[] as [$$w, $$m, $$v, $$u] ({}; .[$$w].metrics[$$m] = {value: ($$v | tonumber), unit: $$u})' > $$tmp/metrics.json; \
	tail -n 1 $$tmp/stdout > $$tmp/result.json; \
	jq -s '.[0] as $$trace | .[1] as $$result | {generated_at: (now | todate), command: "bash bench/run.sh -workload all -trace 1", machine: $$trace.machine, correct: $$result.correct, attempted: $$result.attempted, failed: $$result.failed, workloads: (.[2] | with_entries(.value.breakdown = $$trace.breakdowns[.key]))}' \
		$$tmp/trace.json $$tmp/result.json $$tmp/metrics.json > $$tmp/BENCH_e2e.json; \
	mv $$tmp/BENCH_e2e.json BENCH_e2e.json; \
	echo "wrote BENCH_e2e.json"

# Side-by-side go-test micro-benchmarks of a trained page's whole align
# (keys-only segmentation, then runtime.AlignPerDoc, which builds the table
# mentions and aligns the documents in order through one feature.Tables, as
# behind every alignment route's miss path), of one trained document's
# align, of the resolution hot path, of document keying (the content hash
# behind every store write, batch cache hit and ingest reuse check), of page
# segmentation in its two forms (full, table mentions included, as
# /v1/summarize segments; keys-only, as the other alignment routes and ingest
# segment a page that misses its page entry), of an 8-page /v1/align/batch
# request whose pages
# hit their page entries or miss them (documents cached either way), and of
# the read path behind /v1/search and /v1/facts (store queries, the shared
# response writer, and whole first-page GETs of both routes through the
# middleware), and of the two reads a server boots on (a model bundle's
# load, and a store's replay of an ingest log), with allocation counts —
# for inspecting individual kernels rather than the aggregate report.
bench-compare:
	$(GO) test -bench '^BenchmarkAlignPage$$' -benchmem -run ^$$ .
	$(GO) test -bench '^BenchmarkPipelineAlign$$' -benchmem -run ^$$ .
	$(GO) test -bench 'RWR|Resolve' -benchmem -run ^$$ ./internal/graph
	$(GO) test -bench '^BenchmarkLoadModels$$' -benchmem -run ^$$ ./internal/experiment
	$(GO) test -bench 'DocumentKey|Search|FactsFor|StoreOpen' -benchmem -run ^$$ ./internal/store
	$(GO) test -bench 'SegmentPage' -benchmem -run ^$$ ./internal/document
	$(GO) test -bench 'AlignBatch|ListReads' -benchmem -run ^$$ ./cmd/briq-server
	$(GO) test -bench 'WriteJSON' -benchmem -run ^$$ ./internal/api

# Paper-table benchmarks (Tables I–IX, ablations) from the repo root.
bench-tables:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

experiments:
	$(GO) run ./cmd/briq-experiments -table all

# End-to-end smoke of the load harness with the real binaries: generate a
# tiny corpus, start an (untrained, fast-boot) briq-server with the cache
# and admission gate on, drive it open-loop for ~2 seconds, and fail if no
# request succeeds. This is the cheap guard that the corpus → server →
# loadgen contract (manifest format, envelope codes, /metrics scrape) still
# holds end to end; the serving baseline itself comes from bench-serve.
loadgen-smoke:
	@set -e; tmp=$$(mktemp -d); spid=""; \
	trap 'test -n "$$spid" && kill $$spid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-server ./cmd/briq-loadgen; \
	$$tmp/corpusgen -out $$tmp/corpus -pages 8 -seed 42 >/dev/null; \
	$$tmp/briq-server -addr 127.0.0.1:18573 -cache-bytes 8388608 -max-inflight 8 -quiet & spid=$$!; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18573 -corpus $$tmp/corpus \
		-qps 100 -duration 2s -seed 7 -wait 15s; \
	kill $$spid; spid=""

# End-to-end smoke of the sharded fleet with the real binaries: train one
# model bundle, boot two briq-server replicas from it, front them with
# briq-gateway, and drive two bursts through the gateway. The first burst
# asserts the sharded caches are actually being hit (-min-hit-rate) with
# zero errors; then one replica is killed and the second burst asserts the
# gateway's retry + eject path hides the corpse (error rate ≤ 5%, hit rate
# intact). This is the cheap guard that the fleet contract — bundle boot,
# /v1 surface, consistent-hash routing, health ejection, aggregated
# /metrics scrape — holds end to end; the scaling numbers come from
# bench-gateway.
gateway-smoke:
	@set -e; tmp=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-train ./cmd/briq-server ./cmd/briq-gateway ./cmd/briq-loadgen; \
	$$tmp/corpusgen -out $$tmp/corpus -pages 8 -seed 42 >/dev/null; \
	$$tmp/briq-train -out $$tmp/briq.model -pages 60 -seed 42 >/dev/null; \
	$$tmp/briq-server -addr 127.0.0.1:18575 -model $$tmp/briq.model -cache-bytes 8388608 -max-inflight 8 -quiet & pids="$$!"; \
	$$tmp/briq-server -addr 127.0.0.1:18576 -model $$tmp/briq.model -cache-bytes 8388608 -max-inflight 8 -quiet & r2=$$!; pids="$$pids $$r2"; \
	$$tmp/briq-gateway -addr 127.0.0.1:18577 -replicas http://127.0.0.1:18575,http://127.0.0.1:18576 -probe-interval 100ms & pids="$$pids $$!"; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18577 -corpus $$tmp/corpus \
		-qps 100 -duration 2s -seed 7 -wait 30s -min-hit-rate 0.3 -max-error-rate 0; \
	echo "gateway-smoke: killing replica 2, driving the survivor"; \
	kill $$r2; wait $$r2 2>/dev/null || true; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18577 -corpus $$tmp/corpus \
		-qps 100 -duration 2s -seed 8 -wait 10s -min-hit-rate 0.3 -max-error-rate 0.05

# End-to-end smoke of the persistent aligned-corpus store with the real
# binaries: boot a trained briq-server on a fresh -store directory, align a
# small corpus through it, capture GET /v1/search output with briq-search,
# then kill the server, boot a second one on the same directory and assert
# (a) the restart actually replayed documents, (b) the same query answers
# byte-identically against the warm index, and (c) briq-search -store reads
# the directory offline to the same bytes. This is the cheap guard that the
# store contract — append-only log, fingerprint-bound replay, incremental
# index equivalence, /v1/search surface — holds end to end; the in-process
# equivalence proofs live in internal/store and cmd/briq-server tests.
store-smoke:
	@set -e; tmp=$$(mktemp -d); spid=""; \
	trap 'test -n "$$spid" && kill $$spid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-train ./cmd/briq-server ./cmd/briq-loadgen ./cmd/briq-search; \
	$$tmp/corpusgen -out $$tmp/corpus -pages 8 -seed 42 >/dev/null; \
	$$tmp/briq-train -out $$tmp/briq.model -pages 60 -seed 42 >/dev/null; \
	$$tmp/briq-server -addr 127.0.0.1:18578 -model $$tmp/briq.model -store $$tmp/store \
		-cache-bytes 8388608 -max-inflight 8 -quiet 2>$$tmp/server1.log & spid=$$!; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18578 -corpus $$tmp/corpus \
		-qps 100 -duration 2s -seed 7 -wait 15s >/dev/null; \
	$$tmp/briq-search -addr http://127.0.0.1:18578 "revenue above 0" > $$tmp/before.txt; \
	kill $$spid; wait $$spid 2>/dev/null || true; spid=""; \
	$$tmp/briq-server -addr 127.0.0.1:18578 -model $$tmp/briq.model -store $$tmp/store \
		-cache-bytes 8388608 -max-inflight 8 -quiet 2>$$tmp/server2.log & spid=$$!; \
	for i in $$(seq 1 75); do \
		$$tmp/briq-search -addr http://127.0.0.1:18578 "revenue above 0" \
			> $$tmp/after.txt 2>/dev/null && break; sleep 0.2; done; \
	grep -q '\[pg' $$tmp/before.txt \
		|| { echo "store-smoke: first query found nothing"; cat $$tmp/before.txt; exit 1; }; \
	grep -E 'replayed [1-9][0-9]* documents' $$tmp/server2.log >/dev/null \
		|| { echo "store-smoke: warm restart replayed nothing"; cat $$tmp/server2.log; exit 1; }; \
	cmp $$tmp/before.txt $$tmp/after.txt \
		|| { echo "store-smoke: search results diverged across restart"; exit 1; }; \
	$$tmp/briq-search -store $$tmp/store "revenue above 0" | tail -n +2 > $$tmp/offline.txt; \
	cmp $$tmp/before.txt $$tmp/offline.txt \
		|| { echo "store-smoke: offline -store results diverge from server"; exit 1; }; \
	kill $$spid; spid=""; \
	echo "store-smoke: warm restart byte-identical, offline store matches"

# End-to-end smoke of streaming ingestion with the real binaries: generate
# a small corpus, stream it into an untrained briq-server through
# `briq ingest`, append one sentence to the first paragraph of every page
# (a re-crawl where most documents are byte-identical), re-ingest, and
# assert (a) the re-crawl reused at least one document's stored alignments
# while realigning the changed ones, and (b) GET /v1/search answers
# byte-identically to a second server that ingested only the final mutated
# corpus from scratch — the incremental-vs-from-scratch equivalence gate
# over the wire, with the real CLI. The in-process proofs live in
# internal/store, internal/ingest and cmd/briq-server tests.
ingest-smoke:
	@set -e; tmp=$$(mktemp -d); apid=""; bpid=""; \
	trap 'test -n "$$apid" && kill $$apid 2>/dev/null; test -n "$$bpid" && kill $$bpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-server ./cmd/briq ./cmd/briq-search; \
	$$tmp/corpusgen -out $$tmp/corpus -pages 6 -seed 42 >/dev/null; \
	$$tmp/briq-server -addr 127.0.0.1:18584 -store $$tmp/storeA -quiet 2>$$tmp/serverA.log & apid=$$!; \
	for i in $$(seq 1 75); do \
		$$tmp/briq-search -addr http://127.0.0.1:18584 "revenue above 0" >/dev/null 2>&1 && break; sleep 0.2; done; \
	$$tmp/briq ingest -addr 127.0.0.1:18584 $$tmp/corpus > $$tmp/cold.txt; \
	grep -Eq 'ingested 6 pages: 0 documents reused, [1-9][0-9]* realigned, 0 retracted, 0 page errors' $$tmp/cold.txt \
		|| { echo "ingest-smoke: unexpected cold ingest summary"; cat $$tmp/cold.txt; exit 1; }; \
	for f in $$tmp/corpus/*.html; do \
		sed -i '0,/<\/p>/s// A revised figure was confirmed on re-crawl.<\/p>/' $$f; done; \
	$$tmp/briq ingest -addr 127.0.0.1:18584 $$tmp/corpus > $$tmp/recrawl.txt; \
	grep -Eq 'ingested 6 pages: [1-9][0-9]* documents reused, [1-9][0-9]* realigned, [0-9]+ retracted, 0 page errors' $$tmp/recrawl.txt \
		|| { echo "ingest-smoke: re-crawl reused nothing"; cat $$tmp/recrawl.txt; exit 1; }; \
	$$tmp/briq-search -addr http://127.0.0.1:18584 "revenue above 0" > $$tmp/incr.txt; \
	grep -q '\[pg' $$tmp/incr.txt \
		|| { echo "ingest-smoke: incremental server found nothing"; cat $$tmp/incr.txt; exit 1; }; \
	$$tmp/briq-server -addr 127.0.0.1:18585 -store $$tmp/storeB -quiet 2>$$tmp/serverB.log & bpid=$$!; \
	for i in $$(seq 1 75); do \
		$$tmp/briq-search -addr http://127.0.0.1:18585 "revenue above 0" >/dev/null 2>&1 && break; sleep 0.2; done; \
	$$tmp/briq ingest -addr 127.0.0.1:18585 $$tmp/corpus >/dev/null; \
	$$tmp/briq-search -addr http://127.0.0.1:18585 "revenue above 0" > $$tmp/scratch.txt; \
	cmp $$tmp/incr.txt $$tmp/scratch.txt \
		|| { echo "ingest-smoke: incremental search diverges from from-scratch ingest"; exit 1; }; \
	kill $$apid; apid=""; kill $$bpid; bpid=""; \
	echo "ingest-smoke: re-crawl reuse nonzero, incremental search byte-identical to from-scratch"

# Serving baseline: a size-targeted corpus, a trained briq-server with the
# production serving configuration, and an open-loop run that writes the
# committed BENCH_serve.json (schema-tested in internal/loadgen). The
# ROADMAP's scaling items (gateway sharding, streaming ingest) regress
# against this file; regenerate it on the same class of machine you compare
# against. Tune the offered rate with BENCH_SERVE_QPS / BENCH_SERVE_DURATION.
BENCH_SERVE_QPS ?= 40
BENCH_SERVE_DURATION ?= 20s
bench-serve:
	@set -e; tmp=$$(mktemp -d); spid=""; \
	trap 'test -n "$$spid" && kill $$spid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-server ./cmd/briq-loadgen; \
	$$tmp/corpusgen -out $$tmp/corpus -tot-size 4MB -seed 42; \
	$$tmp/briq-server -addr 127.0.0.1:18574 -trained -cache-bytes 67108864 -max-inflight 32 -quiet & spid=$$!; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18574 -corpus $$tmp/corpus \
		-qps $(BENCH_SERVE_QPS) -duration $(BENCH_SERVE_DURATION) -warmup 3s -seed 1 \
		-wait 60s -out BENCH_serve.json; \
	kill $$spid; spid=""

# Gateway scaling section of BENCH_serve.json: the same offered load driven
# through briq-gateway against one replica, then against two replicas
# sharding the same model bundle, then against two replicas with one killed
# mid-run (the chaos slot). Run bench-serve first — the scaling runs merge
# into the existing report (-scaling <slot>) without disturbing the
# single-server sections.
#
# The workload is built to expose cache-capacity scaling on a 1-CPU box,
# where replicas cannot add compute: heavyweight pages (-paras/-refs) whose
# alignment costs ~100ms a miss, bulk block-batches (-batch-blocks: every
# batch is one of a fixed set of non-overlapping 8-page blocks, so batch
# bodies recur and the gateway's consistent hash pins each block — and its
# documents' cache entries — to exactly one replica), a near-uniform block
# popularity curve (-zipf 1.05), and a per-replica cache sized to roughly
# half the corpus working set. A batch occupies one admission slot and
# computes every cold page it carries, so one replica churns its LRU,
# holds its slots for ~1s per cold block, and sheds whole batches — while
# two replicas hold the full working set between their shards, turn slots
# over in milliseconds, and serve the same offered load nearly flat-out.
# The mix is batch-only: single-page requests route by page body while the
# page's block routes by batch body, so mixing them caches hot pages on
# both replicas and hands the capacity win back. The comparison runs also
# disable the gateway's retry budget (-retry-budget -1): retrying a
# capacity shed onto the ring successor computes the block on the wrong
# replica and pollutes its shard — and with retries off, client-observed
# 429s equal the fleet's shed_overloaded delta exactly, which is the
# cross-check the chaos slot's report is read against. The chaos run keeps
# the default budget, because retry-to-successor is precisely the
# mechanism that absorbs a replica kill. The headline number is
# scaling.docs_speedup — delivered documents per second, which charges a
# shed batch for every page it carried.
BENCH_GATEWAY_QPS ?= 10
BENCH_GATEWAY_DURATION ?= 30s
BENCH_GATEWAY_WARMUP ?= 40s
BENCH_GATEWAY_CACHE_BYTES ?= 1048576
BENCH_GATEWAY_CORPUS_SIZE ?= 2MB
BENCH_GATEWAY_MIX ?= batch=1
bench-gateway:
	@set -e; tmp=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/corpusgen ./cmd/briq-train ./cmd/briq-server ./cmd/briq-gateway ./cmd/briq-loadgen; \
	$$tmp/corpusgen -out $$tmp/corpus -tot-size $(BENCH_GATEWAY_CORPUS_SIZE) -seed 42 -paras 12 -refs 6; \
	$$tmp/briq-train -out $$tmp/briq.model -seed 42; \
	echo "== bench-gateway 1/3: gateway + 1 replica =="; \
	$$tmp/briq-server -addr 127.0.0.1:18580 -model $$tmp/briq.model -cache-bytes $(BENCH_GATEWAY_CACHE_BYTES) -max-inflight 4 -quiet & pids="$$!"; \
	$$tmp/briq-gateway -addr 127.0.0.1:18583 -replicas http://127.0.0.1:18580 -retry-budget -1 & pids="$$pids $$!"; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18583 -corpus $$tmp/corpus \
		-qps $(BENCH_GATEWAY_QPS) -duration $(BENCH_GATEWAY_DURATION) -warmup $(BENCH_GATEWAY_WARMUP) \
		-zipf 1.05 -mix $(BENCH_GATEWAY_MIX) -batch-blocks -seed 1 -wait 60s \
		-out BENCH_serve.json -scaling replicas_1; \
	kill $$pids; pids=""; sleep 1; \
	echo "== bench-gateway 2/3: gateway + 2 replicas =="; \
	$$tmp/briq-server -addr 127.0.0.1:18580 -model $$tmp/briq.model -cache-bytes $(BENCH_GATEWAY_CACHE_BYTES) -max-inflight 4 -quiet & pids="$$!"; \
	$$tmp/briq-server -addr 127.0.0.1:18581 -model $$tmp/briq.model -cache-bytes $(BENCH_GATEWAY_CACHE_BYTES) -max-inflight 4 -quiet & pids="$$pids $$!"; \
	$$tmp/briq-gateway -addr 127.0.0.1:18583 -replicas http://127.0.0.1:18580,http://127.0.0.1:18581 -retry-budget -1 & pids="$$pids $$!"; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18583 -corpus $$tmp/corpus \
		-qps $(BENCH_GATEWAY_QPS) -duration $(BENCH_GATEWAY_DURATION) -warmup $(BENCH_GATEWAY_WARMUP) \
		-zipf 1.05 -mix $(BENCH_GATEWAY_MIX) -batch-blocks -seed 1 -wait 60s \
		-out BENCH_serve.json -scaling replicas_2; \
	kill $$pids; pids=""; sleep 1; \
	echo "== bench-gateway 3/3: chaos, replica killed mid-run =="; \
	$$tmp/briq-server -addr 127.0.0.1:18580 -model $$tmp/briq.model -cache-bytes $(BENCH_GATEWAY_CACHE_BYTES) -max-inflight 4 -quiet & pids="$$!"; \
	$$tmp/briq-server -addr 127.0.0.1:18581 -model $$tmp/briq.model -cache-bytes $(BENCH_GATEWAY_CACHE_BYTES) -max-inflight 4 -quiet & r2=$$!; pids="$$pids $$r2"; \
	$$tmp/briq-gateway -addr 127.0.0.1:18583 -replicas http://127.0.0.1:18580,http://127.0.0.1:18581 & pids="$$pids $$!"; \
	( sleep 55; echo "bench-gateway: killing replica 2 mid-run"; kill $$r2 ) & pids="$$pids $$!"; \
	$$tmp/briq-loadgen -target http://127.0.0.1:18583 -corpus $$tmp/corpus \
		-qps $(BENCH_GATEWAY_QPS) -duration $(BENCH_GATEWAY_DURATION) -warmup $(BENCH_GATEWAY_WARMUP) \
		-zipf 1.05 -mix $(BENCH_GATEWAY_MIX) -batch-blocks -seed 1 -wait 60s \
		-out BENCH_serve.json -scaling chaos

# Short fuzz pass over every committed fuzz target and its seed corpus. Each
# target gets a few seconds of mutation on top of replaying the corpus — long
# enough to catch regressions in the parsing/serialization invariants the
# corpora pin (never panic, reject malformed input, round-trip bit-identical),
# short enough for every `make check`. `go test -fuzz` accepts one target per
# invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/forest
	$(GO) test -run '^$$' -fuzz '^FuzzPositiveProbaBatch$$' -fuzztime 5s ./internal/forest
	$(GO) test -run '^$$' -fuzz '^FuzzParseCell$$' -fuzztime 5s ./internal/quantity
	$(GO) test -run '^$$' -fuzz '^FuzzExtractText$$' -fuzztime 5s ./internal/quantity
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime 5s ./internal/quantsearch
	$(GO) test -run '^$$' -fuzz '^FuzzParseComparison$$' -fuzztime 5s ./internal/quantsearch
	$(GO) test -run '^$$' -fuzz '^FuzzSearchParams$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzIngestLines$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzAlignBatch$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzAlignPage$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendAlignments$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendSearchPage$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFactsPage$$' -fuzztime 5s ./cmd/briq-server
	$(GO) test -run '^$$' -fuzz '^FuzzHashDocumentTables$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHashDocumentText$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReplayLog$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRoutingIdentity$$' -fuzztime 5s ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzAppendIndent$$' -fuzztime 5s ./internal/api

# Coverage gate for the classification engine: the flat-forest inference path
# and the feature extractor are equivalence-critical (the frozen engine's
# bit-identity contract lives in their tests), so their statement coverage
# must not decay below 85%.
COVER_PKGS = ./internal/forest ./internal/feature
COVER_MIN = 85
cover-check:
	@fail=0; for pkg in $(COVER_PKGS); do \
		pct="$$($(GO) test -cover $$pkg | awk '/coverage:/ {for (i=1;i<=NF;i++) if ($$i=="coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}')"; \
		if [ -z "$$pct" ]; then echo "cover-check: no coverage for $$pkg"; fail=1; \
		elif awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN{exit (p>=m)?1:0}'; then \
			echo "cover-check: $$pkg at $$pct% (< $(COVER_MIN)%)"; fail=1; \
		else echo "cover-check: $$pkg at $$pct% (>= $(COVER_MIN)%)"; fi; \
	done; exit $$fail

fmt:
	gofmt -l -w .

# Formatting gate: fails listing the offending files if anything is not
# gofmt-clean. `gofmt -l` exits 0 even when files need formatting, so the
# gate greps its output instead of trusting the exit code.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
