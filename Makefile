# Convenience targets for the RSN reproduction repo.
#
# Every python-running target exports PYTHONPATH=src so the targets work
# on a clean checkout without an editable install (the same invocation CI
# and ROADMAP's tier-1 verify use).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast bench bench-ea bench-service bench-campaigns bench-telemetry bench-diff lint table1 sweeps examples serve-smoke clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-ea:
	$(PYTHON) benchmarks/bench_ea_population.py --output results/BENCH_ea.json --lowering-output results/BENCH_ea_lowering.json

bench-service:
	$(PYTHON) benchmarks/bench_service_load.py --output results/BENCH_service.json

bench-campaigns:
	$(PYTHON) benchmarks/bench_campaigns.py --output results/BENCH_campaigns.json

bench-telemetry:
	$(PYTHON) benchmarks/bench_telemetry.py --output results/BENCH_telemetry.json

bench-diff:
	$(PYTHON) -m repro.cli bench-diff results/BENCH_ea.json results/BENCH_ea_lowering.json results/BENCH_service.json results/BENCH_campaigns.json results/BENCH_telemetry.json --tolerance 0.2

lint:
	ruff check src tests benchmarks examples

table1:
	$(PYTHON) -m repro.cli table1 --compare

sweeps:
	bash results/run_sweeps.sh

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/runtime_avfs_hardening.py
	$(PYTHON) examples/tradeoff_exploration.py TreeFlat /tmp/tradeoff.csv
	$(PYTHON) examples/fault_diagnosis.py
	$(PYTHON) examples/batch_access.py
	$(PYTHON) examples/post_silicon_validation.py

serve-smoke:
	$(PYTHON) examples/service_smoke.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -prune -exec rm -rf {} \;
