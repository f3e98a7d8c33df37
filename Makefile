# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: help install test verify fuzz-quick bench-loss bench-cluster bench-record top serve examples report fast-report figure1 all-experiments clean

help:
	@echo "Targets:"
	@echo "  install          editable install of the package"
	@echo "  test             run the unit test suite"
	@echo "  verify           tier-1 tests + runner smoke test (manifest"
	@echo "                   written, JSONL logs parse, exact-test misses"
	@echo "                   == kernel builds == distinct period vectors)"
	@echo "                   + the perfbench trend check + fuzz-quick"
	@echo "  fuzz-quick       deterministic differential fuzz (fixed seed,"
	@echo "                   <60s) + mutation smoke: every injected bug"
	@echo "                   must be flagged; nonzero exit otherwise"
	@echo "  bench-loss       lossy-medium canary: breakdown utilization vs"
	@echo "                   loss fraction for both protocols under the"
	@echo "                   retransmission-aware bounds -> BENCH_loss.json"
	@echo "                   (the verify loss canary checks its shape)"
	@echo "  bench-cluster    sharded-cluster canary: spawn worker fleets at"
	@echo "                   1, 2 and 4 workers behind the consistent-hash"
	@echo "                   router, drive the same seeded load through"
	@echo "                   each -> BENCH_cluster.json (fleet req/s,"
	@echo "                   per-shard latency percentiles, measured"
	@echo "                   scaling ratio + cpu_count for the hardware-"
	@echo "                   aware verify guard)"
	@echo "  bench-record     fresh perfbench runs of figure1_paper,"
	@echo "                   serve_check_warm and serve_admit_churn ->"
	@echo "                   one BENCH_history.jsonl line each, the"
	@echo "                   median of three runs (the"
	@echo "                   verify trend check compares against the"
	@echo "                   newest line of the same host)"
	@echo "  top              live terminal dashboard over a spawned server"
	@echo "                   (req/s, p50/p99, cache hit ratio, batch sizes)"
	@echo "  serve            run the admission service on localhost:8787"
	@echo "  examples         run every example script"
	@echo "  figure1          full Figure 1 run, CSV output"
	@echo "  report           full markdown report"
	@echo "  fast-report      scaled-down report (seconds, same shapes)"
	@echo "  all-experiments  every experiment at paper scale"
	@echo "  clean            remove build artifacts and caches"

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

verify:
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) tools/verify_smoke.py
	$(MAKE) fuzz-quick

fuzz-quick:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner fuzz \
		--fuzz-cases 60 --mutation-smoke --no-manifest --log-level warning

bench-loss:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner \
		loss-sweep --fast --no-manifest --log-level warning \
		--loss-bench-json BENCH_loss.json

bench-cluster:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner \
		bench-cluster --no-manifest --log-level warning \
		--cluster-bench-json BENCH_cluster.json

bench-record:
	$(PYTHON) tools/bench_trend.py record

top:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner top \
		--spawn --no-manifest --log-level error

serve:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner serve \
		--port 8787 --no-manifest

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src:$$PYTHONPATH $(PYTHON) $$script || exit 1; \
	done

figure1:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner figure1 \
		--csv figure1_full.csv

report:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner report \
		--out report.md

fast-report:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner report \
		--fast --out report.md

all-experiments:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner all

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -type d -name __pycache__ -prune -exec rm -rf {} \;
