# Developer/CI entry points.  `make verify` is the gate every change
# must pass: tier-1 tests plus the perf microbenchmarks in smoke mode.
# The smoke bench's codec check covers only the flat Huffman codec (its
# payloads against the frozen seed in src/repro/compress/reference.py)
# and bulk bit I/O (against per-field writes).  Every other codec's
# payloads are held to the frozen bit-writer encoders in
# tests/oracle/codecs.py by the tier-1 suite
# tests/properties/test_encoder_oracle.py.  Each perfbench workload's
# seed-1 sweep is held to its pinned canonical_json SHA-256 by the
# tier-1 suite tests/integration/test_perfbench_pins.py.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-smoke experiments examples store-smoke \
	serve-smoke obs-smoke chaos docs verify

test:
	$(PYTHON) -m pytest -x -q

# Conservative ruff gate (see ruff.toml).  Skips gracefully when ruff
# is not installed locally; CI always installs and runs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "lint skipped: ruff not installed" \
			"(pip install ruff to run locally)"; \
	fi

bench:
	$(PYTHON) -m repro.cli bench

bench-smoke:
	$(PYTHON) -m repro.cli bench --smoke --no-write

experiments:
	$(PYTHON) -m pytest benchmarks/ -q

# Smoke-run every public-API example (they assert their own
# invariants), plus the sample spec file through the CLI, so the
# documented entry points can never rot.
examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) "$$f" > /dev/null; \
	done
	$(PYTHON) -m repro exp --spec examples/specs/kedge_grid.json \
		> /dev/null
	@echo "examples OK"

# Docs gate: the generated CLI reference must match the live argparse
# tree, and every fenced python/json snippet in docs/cookbook.md must
# execute against the real API.  Regenerate the CLI page with
# `python -m repro.cli docs` after changing flags/subcommands.
docs:
	$(PYTHON) -m repro.cli docs --check
	$(PYTHON) -m pytest tests/docs -q

# Run a tiny sweep twice against a throwaway store and assert the
# second run is served >= 90% from cache with a byte-identical result
# set (fingerprints, CAS round-trip, and cache-hit-equals-recompute,
# end to end through the public facade).
store-smoke:
	$(PYTHON) -m repro store smoke

# Boot a real sweep-service subprocess against a throwaway store:
# /healthz goes green, a submitted spec's /result is byte-identical
# to a local run_experiment on the same store, SIGTERM drains
# gracefully leaving a resumable journal (a second boot still dedups).
# Then the load harness proves the cached fast path sustains >= 1000
# requests/s.
serve-smoke:
	$(PYTHON) -m repro serve --smoke
	$(PYTHON) benchmarks/perf/load_service.py --smoke

# Observability gate: boot a real server subprocess, run one job,
# validate GET /metrics?format=prometheus against the exposition
# syntax checker, and assert /dashboard serves the self-contained
# live page (see docs/observability.md).
obs-smoke:
	$(PYTHON) -m repro obs smoke

# Seeded fault-injection scenarios (tests/chaos/): sweeps under
# injected worker crashes, hangs, transient faults and store
# corruption must recover byte-identical results or degrade into
# structured error rows — never abort, never cache a failure.
chaos:
	$(PYTHON) -m pytest tests/chaos -q

verify: lint test bench-smoke examples docs store-smoke serve-smoke \
		obs-smoke chaos
	@echo "verify OK: lint clean, tier-1 tests green, fast-path" \
		"output matches seed, examples run, docs in sync, store" \
		"serves repeat sweeps from cache, sweep service round-trips" \
		"and drains cleanly, observability endpoints validate," \
		"chaos suite survives injected faults"
