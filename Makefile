# Developer entry points.  pytest's addopts carry `-m "not bench"`, so
# plain `make test` never runs benchmarks; the bench targets override
# the marker expression (the last `-m` on the command line wins).

PYTHON ?= python
export PYTHONPATH := src:.

.PHONY: check test test-faults verify-figures bench bench-sweep bench-runtime bench-pipeline bench-serve bench-serve-smoke bench-packed bench-update bench-classify bench-classify-smoke bench-e2e-selftest serve-smoke serve-smoke-fleet update-faults

# SHA-256 of `psl-repro all` stdout (default seed): every figure and
# table, pinned.  Update only with a change that means to move them.
FIGURES_SHA256 := 8fd5547fd9b0f986c5f2daaa6466349a8945e151d4deb947be7ddc1e1bf9f9c1

check: test verify-figures serve-smoke serve-smoke-fleet update-faults bench-serve-smoke bench-classify-smoke bench-e2e-selftest  ## the pre-merge gate: tier-1 + pinned figures + both serve smokes + the upstream fault soak + fast serve/classify benches + benchmark-harness self-tests
	@echo "check: all gates passed"

test:  ## tier-1: the full fast suite
	$(PYTHON) -m pytest -x -q

verify-figures:  ## psl-repro all, serial and --workers 2, from a fresh temp dir: each stdout must hash to FIGURES_SHA256
	@set -e; workdir=$$(mktemp -d); trap 'rm -rf "$$workdir"' EXIT; \
	for workers in 1 2; do \
		(cd "$$workdir" && PYTHONPATH="$(CURDIR)/src" $(PYTHON) -m repro.analysis.cli all --workers $$workers > stdout.txt); \
		digest=$$(sha256sum < "$$workdir/stdout.txt" | cut -d' ' -f1); \
		if [ "$$digest" != "$(FIGURES_SHA256)" ]; then \
			echo "verify-figures: --workers $$workers printed $$digest, expected $(FIGURES_SHA256)"; exit 1; \
		fi; \
		echo "verify-figures: --workers $$workers ok"; \
	done

test-faults:  ## the fault-injection suite (runtime resilience + misuse modes)
	$(PYTHON) -m pytest tests/test_runtime_resilience.py tests/test_failure_injection.py -q

bench:  ## all benchmarks (writes benchmarks/artifacts/)
	$(PYTHON) -m pytest benchmarks -m bench -q -s

bench-sweep:  ## the Figure 5-7 sweep gates (run_sweep >= 5x per-version rebuild, workers=2 bit-identical)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_sweep.py -m bench -q -s

bench-runtime:  ## the resilient-runtime overhead gate (<10% over a plain classify_chunk loop on a fault-free sweep)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_runtime.py -m bench -q -s

bench-pipeline:  ## the artifact-pipeline gates (warm >= 5x cold, cold overhead < 10%)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_pipeline.py -m bench -q -s

bench-serve:  ## the serving-layer gates (resident lookup >= 50x rebuild, batch >= 5x singles, fleet scaling/p99/memory)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_serve.py -m bench -q -s

bench-serve-smoke:  ## the same serving gates under a seconds-long load (functional contracts only)
	BENCH_SERVE_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_bench_perf_serve.py -m bench -q

bench-packed:  ## the packed-snapshot gates (uncached match <= 5.87 µs, resident cut >= 5x)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_packed.py -m bench -q -s

bench-update:  ## the update-loop gates (swap propagation < 250ms, SLO gauges exact vs journal)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_update.py -m bench -q -s

bench-classify:  ## the bulk-classify gates (throughput >= 60k records/s, peak RSS <= 512 MiB, resume >= 3x)
	$(PYTHON) -m pytest benchmarks/test_bench_perf_classify.py -m bench -q -s

bench-classify-smoke:  ## the same classify gates on a seconds-long log (throughput/memory contracts only)
	BENCH_CLASSIFY_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_bench_perf_classify.py -m bench -q

bench-e2e-selftest:  ## the repo benchmark's harness self-tests (scraped metrics, JSON shapes, verdicts)
	$(PYTHON) -m pytest benchmarks/e2e -m bench -q

serve-smoke:  ## start psl-serve on an ephemeral port, hit every endpoint, assert JSON shapes
	$(PYTHON) -m repro.serve.cli --smoke

serve-smoke-fleet:  ## the same smoke against a 4-worker pre-fork fleet (epoch agreement included)
	$(PYTHON) -m repro.serve.cli --smoke --workers 4 --packed

update-faults:  ## the full fault-plan soak: every upstream failure mode under live client load
	$(PYTHON) -m repro.update.cli --soak
