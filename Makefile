# Verification tiers and perf tooling (see ROADMAP.md).
#
#   make tier1           # the seed contract: build + tests (including the
#                        # suite and render-cache performance gates)
#   make tier2           # vet + tests under the race detector
#   make bench-smoke     # every benchmark in every package, one iteration
#   make bench-serve     # cache-hit vs cold-request latency
#   make bench-load      # hfload run against a booted hfserved → BENCH_serve_load.json
#   make bench-load-router # hfload run through hfrouter over 2 shards → BENCH_router_load.json
#   make router-smoke    # boot 2 shards + hfrouter, verify routing end to end
#   make ingest-smoke    # upload a truncated corpus, stream the rest via events, diff vs hfanalyze
#   make serve           # run the HTTP analysis service (hfserved)
#   make check           # tier1 + tier2

.PHONY: tier1 tier2 check bench-smoke bench-serve bench-load bench-load-router router-smoke ingest-smoke serve

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && go test -race ./...

check: tier1 tier2

# Runs every benchmark in every package exactly once: catches benchmarks
# that no longer compile or crash. The enforced performance gates are
# tests (TestSuiteDescriptiveGate, internal/serve TestRenderCacheHitGate)
# and run with tier1; perfbench/ measures the serving tier end to end.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Cache-hit vs cold-request latency for the HTTP analysis service; the
# gap is the result cache's value proposition (see DESIGN.md §3.3).
bench-serve:
	go test -run '^$$' -bench 'Serve' -benchtime 3x ./internal/serve/

# Build version baked into hfserved/hfload (-version flag, /healthz,
# the turnup_build_info metric, and the load report's version field).
VERSION := $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X turnup/internal/version.override=$(VERSION)"

# End-to-end load run: boot hfserved on a local port, replay the default
# request mix at LOAD_RPS for LOAD_DURATION via hfload, and snapshot the
# per-route latency report into BENCH_serve_load.json (the load-smoke
# gate's baseline — regenerate on the same machine class when serving
# latency intentionally changes). Extra hfload flags go in LOAD_FLAGS,
# e.g. make bench-load LOAD_FLAGS="-mix hot=1 -slo-p99 250ms".
LOAD_ADDR     ?= 127.0.0.1:8098
LOAD_DURATION ?= 10s
LOAD_RPS      ?= 50
bench-load:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfload ./cmd/hfload
	@/tmp/hfserved -addr $(LOAD_ADDR) -max-scale 0.05 -log-format none & \
	SERVED=$$!; \
	/tmp/hfload -target http://$(LOAD_ADDR) -wait 30s \
	  -duration $(LOAD_DURATION) -rps $(LOAD_RPS) -seed 1 \
	  -out BENCH_serve_load.json $(LOAD_FLAGS); \
	STATUS=$$?; \
	kill -TERM $$SERVED 2>/dev/null; wait $$SERVED 2>/dev/null; \
	exit $$STATUS

# Routed variant of bench-load: two hfserved shards behind hfrouter, the
# same mix replayed through the router. The report lands in
# BENCH_router_load.json with the per-shard response distribution.
ROUTER_ADDR  ?= 127.0.0.1:8090
SHARD_A_ADDR ?= 127.0.0.1:8101
SHARD_B_ADDR ?= 127.0.0.1:8102
bench-load-router:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfrouter ./cmd/hfrouter
	go build $(LDFLAGS) -o /tmp/hfload ./cmd/hfload
	@/tmp/hfserved -addr $(SHARD_A_ADDR) -shard http://$(SHARD_A_ADDR) -max-scale 0.05 -log-format none & A=$$!; \
	/tmp/hfserved -addr $(SHARD_B_ADDR) -shard http://$(SHARD_B_ADDR) -max-scale 0.05 -log-format none & B=$$!; \
	/tmp/hfrouter -addr $(ROUTER_ADDR) -shards http://$(SHARD_A_ADDR),http://$(SHARD_B_ADDR) -log-format none & R=$$!; \
	/tmp/hfload -target http://$(ROUTER_ADDR) -wait 30s \
	  -duration $(LOAD_DURATION) -rps $(LOAD_RPS) -seed 1 \
	  -out BENCH_router_load.json $(LOAD_FLAGS); \
	STATUS=$$?; \
	kill -TERM $$R $$A $$B 2>/dev/null; wait $$R $$A $$B 2>/dev/null; \
	exit $$STATUS

# Boot two shards behind hfrouter and verify the sharded tier end to end:
# the router reports both shards healthy, a dataset uploaded through the
# router is retrievable through the router, the routed report matches
# hfanalyze over the same corpus byte for byte, and two well-known report
# keys land on different shards (X-Shard differs), proving the hash ring
# actually spreads load. See .github/workflows/ci.yml (router-smoke).
router-smoke:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfrouter ./cmd/hfrouter
	go build $(LDFLAGS) -o /tmp/hfgen ./cmd/hfgen
	go build $(LDFLAGS) -o /tmp/hfanalyze ./cmd/hfanalyze
	@set -e; \
	/tmp/hfserved -addr $(SHARD_A_ADDR) -shard http://$(SHARD_A_ADDR) -max-scale 0.05 -log-format none & A=$$!; \
	/tmp/hfserved -addr $(SHARD_B_ADDR) -shard http://$(SHARD_B_ADDR) -max-scale 0.05 -log-format none & B=$$!; \
	/tmp/hfrouter -addr $(ROUTER_ADDR) -shards http://$(SHARD_A_ADDR),http://$(SHARD_B_ADDR) -log-format none & R=$$!; \
	trap "kill -TERM $$R $$A $$B 2>/dev/null; wait $$R $$A $$B 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
	  curl -fsS http://$(ROUTER_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -fsS http://$(ROUTER_ADDR)/healthz | grep -q "shards=2/2" || { echo "router-smoke: FAIL shards not all healthy"; exit 1; }; \
	/tmp/hfgen -scale 0.01 -seed 42 -out /tmp/router-smoke-corpus; \
	ID=$$(curl -fsS -F contracts=@/tmp/router-smoke-corpus/contracts.csv \
	  -F users=@/tmp/router-smoke-corpus/users.csv "http://$(ROUTER_ADDR)/v1/datasets?format=json" \
	  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$ID" || { echo "router-smoke: FAIL upload returned no id"; exit 1; }; \
	curl -fsS "http://$(ROUTER_ADDR)/v1/report/growth?dataset=$$ID&models=false" > /tmp/router-smoke-routed.txt; \
	/tmp/hfanalyze -data /tmp/router-smoke-corpus -models=false -sections growth > /tmp/router-smoke-direct.txt; \
	diff -u /tmp/router-smoke-direct.txt /tmp/router-smoke-routed.txt || { echo "router-smoke: FAIL routed report differs from direct analysis"; exit 1; }; \
	S1=$$(curl -fsSI "http://$(ROUTER_ADDR)/v1/report/growth?seed=1&models=false" | tr -d '\r' | awk 'tolower($$1)=="x-shard:" {print $$2}'); \
	SHARD2=$$S1; SEED=2; \
	while [ "$$SHARD2" = "$$S1" ] && [ $$SEED -le 32 ]; do \
	  SHARD2=$$(curl -fsSI "http://$(ROUTER_ADDR)/v1/report/growth?seed=$$SEED&models=false" | tr -d '\r' | awk 'tolower($$1)=="x-shard:" {print $$2}'); \
	  SEED=$$((SEED+1)); \
	done; \
	test -n "$$S1" -a -n "$$SHARD2" -a "$$S1" != "$$SHARD2" || { echo "router-smoke: FAIL report keys did not spread across shards (got $$S1 / $$SHARD2)"; exit 1; }; \
	echo "router-smoke: ok (dataset on its owner, reports spread: $$S1 vs $$SHARD2)"

# Live-ingest smoke: generate a corpus, upload only the first half of its
# contracts, stream the remainder back through POST /v1/datasets/{id}/events
# as CSV rows, and require the generation-2 report to match hfanalyze over
# the complete corpus byte for byte — the end-to-end proof that appends,
# the incremental index, and generation-keyed caching compose correctly.
# See .github/workflows/ci.yml (ingest-smoke).
INGEST_ADDR ?= 127.0.0.1:8099
ingest-smoke:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfgen ./cmd/hfgen
	go build $(LDFLAGS) -o /tmp/hfanalyze ./cmd/hfanalyze
	@set -e; \
	/tmp/hfgen -scale 0.01 -seed 42 -out /tmp/ingest-smoke-corpus; \
	TOTAL=$$(wc -l < /tmp/ingest-smoke-corpus/contracts.csv); \
	HALF=$$(( TOTAL / 2 )); \
	head -n $$HALF /tmp/ingest-smoke-corpus/contracts.csv > /tmp/ingest-smoke-head.csv; \
	{ head -n 1 /tmp/ingest-smoke-corpus/contracts.csv; \
	  tail -n +$$(( HALF + 1 )) /tmp/ingest-smoke-corpus/contracts.csv; } > /tmp/ingest-smoke-rest.csv; \
	/tmp/hfserved -addr $(INGEST_ADDR) -max-scale 0.05 -log-format none & S=$$!; \
	trap "kill -TERM $$S 2>/dev/null; wait $$S 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
	  curl -fsS http://$(INGEST_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	ID=$$(curl -fsS -F contracts=@/tmp/ingest-smoke-head.csv \
	  -F users=@/tmp/ingest-smoke-corpus/users.csv "http://$(INGEST_ADDR)/v1/datasets?format=json" \
	  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$ID" || { echo "ingest-smoke: FAIL upload returned no id"; exit 1; }; \
	GEN=$$(curl -fsS -D - -o /dev/null -H "Content-Type: text/csv" \
	  --data-binary @/tmp/ingest-smoke-rest.csv "http://$(INGEST_ADDR)/v1/datasets/$$ID/events" \
	  | tr -d '\r' | awk 'tolower($$1)=="x-dataset-generation:" {print $$2}'); \
	test "$$GEN" = "2" || { echo "ingest-smoke: FAIL append generation=$$GEN, want 2"; exit 1; }; \
	curl -fsS "http://$(INGEST_ADDR)/v1/report?dataset=$$ID&seed=1&models=false" > /tmp/ingest-smoke-served.txt; \
	/tmp/hfanalyze -data /tmp/ingest-smoke-corpus -seed 1 -models=false > /tmp/ingest-smoke-direct.txt; \
	diff -u /tmp/ingest-smoke-direct.txt /tmp/ingest-smoke-served.txt \
	  || { echo "ingest-smoke: FAIL ingested report differs from direct analysis"; exit 1; }; \
	echo "ingest-smoke: ok (generation-2 report matches hfanalyze over the full corpus)"

# Serve the simulate→analyse pipeline over HTTP (see README "Serving").
# Override flags via SERVE_FLAGS, e.g.
#   make serve SERVE_FLAGS="-addr :9090 -pprof -max-runs 4"
serve:
	go run ./cmd/hfserved $(SERVE_FLAGS)
