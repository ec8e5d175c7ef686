# Convenience targets for the Self-Stabilizing Java reproduction.

PYTHON ?= python

.PHONY: test bench bench-full bench-trend profile-smoke mem-smoke \
        examples check-apps batch-check clean

test:
	$(PYTHON) -m pytest tests/

# Regenerate the paper's tables (benchmarks/results/*.txt); timing is
# repro bench's job (docs/BENCHMARKS.md).
bench:
	$(PYTHON) -m pytest benchmarks/

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/

# Perf trajectory over the checked-in bench history (docs/BENCHMARKS.md).
bench-trend:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench trend

# Profiler smoke: the NullProfiler overhead pin plus a real sampled run
# whose payload must pass PROFILE_SPEC (docs/BENCHMARKS.md).
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs/test_profile.py -q
	PYTHONPATH=src $(PYTHON) -m repro.cli bench \
	  --scenario interpreter-step/wind_sensor --warmup 0 --repetitions 3 \
	  --profile-json PROFILE_smoke.json --output BENCH_smoke.json
	PYTHONPATH=src $(PYTHON) -c "from repro.obs.profile import \
	PROFILE_SPEC; p = PROFILE_SPEC.read('PROFILE_smoke.json'); \
	print('profile-smoke ok:', p['sample_count'], 'samples')"
	rm -f PROFILE_smoke.json BENCH_smoke.json

# Memory smoke: the NullResourceMonitor overhead pin plus one tracked
# scenario with --mem, whose MEM/BENCH payloads must validate
# (docs/BENCHMARKS.md "Memory telemetry").  Payloads are left on disk
# so CI can upload them as artifacts.
mem-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs/test_resources.py -q
	PYTHONPATH=src $(PYTHON) -m repro.cli bench \
	  --scenario interpreter-step/wind_sensor --warmup 0 --repetitions 3 \
	  --mem --mem-json MEM_smoke.json --output BENCH_mem_smoke.json
	PYTHONPATH=src $(PYTHON) -c "from repro.obs.resources import \
	RESOURCES_SPEC; r = RESOURCES_SPEC.read('MEM_smoke.json'); \
	print('mem-smoke ok: rss', r['peak_rss_bytes'], 'bytes,', \
	len(r['sections']), 'section(s)')"
	PYTHONPATH=src $(PYTHON) -c "from repro.obs.bench import BENCH_SPEC; \
	b = BENCH_SPEC.read('BENCH_mem_smoke.json'); \
	assert all('memory' in s for s in b['scenarios']), 'memory missing'; \
	print('mem-smoke ok: bench memory sections present')"

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/catch_a_bug.py
	$(PYTHON) examples/infer_annotations.py
	$(PYTHON) examples/lifetime_bounds.py
	$(PYTHON) examples/program_understanding.py wind_sensor
	$(PYTHON) examples/mp3_fault_injection.py

check-apps:
	for f in src/repro/apps/programs/*.sj; do \
	  echo "== $$f"; $(PYTHON) -m repro.cli check $$f || exit 1; \
	done

# Batch-check every bundled app through the cached service (docs/SERVICE.md).
batch-check:
	$(PYTHON) -m repro.cli batch src/repro/apps/programs

clean:
	rm -rf .pytest_cache .hypothesis
	rm -f MEM_smoke.json BENCH_mem_smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +
