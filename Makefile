# Developer entry points.  `make check` is the pre-PR gate: lint + typecheck
# (when ruff/mypy are available), the tier-1 test suite, the static analyzer
# sweep — with the happens-before pass — over every registered algorithm and
# baseline across all O/F/H x update-mode schedule variants, the symbolic
# plan-space sweep (`make plans`), which verifies every enumerated plan
# point without constructing a transport or executing a step, and the
# transport-protocol gate (`make protocol`): exhaustive interleaving
# exploration of the shm protocol model, the seeded-bug mutation suite, and
# a sanitized live conformance run (see docs/backends.md).
# `make typecheck-strict` is the CI variant that *fails* when mypy is
# missing instead of skipping.
# `make perf` benchmarks the world-batched fast path against the loop
# reference, plus the shm epoch and pool-reduce microbenches, and gates
# against benchmarks/perf/baseline.json (see
# docs/performance.md); `make perf REPRO_BACKEND=shm` runs the suite on a
# different transport backend (see docs/backends.md).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint typecheck typecheck-strict test analyze plans protocol perf

check: lint typecheck test analyze plans protocol

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# The mypy scope lives in pyproject.toml ([tool.mypy] files = ...): the
# analysis subsystem, the cluster layer, the comm kernels, the perf harness
# and the auto-tuner.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

typecheck-strict:
	mypy

test:
	$(PYTHON) -m pytest -x -q

analyze:
	$(PYTHON) -m repro analyze --all --hb

plans:
	$(PYTHON) -m repro analyze --plans --hb

protocol:
	$(PYTHON) -m repro analyze --protocol

# REPRO_BACKEND selects the transport backend for the whole suite
# (local | batched | shm); unset means the batched default.  The result
# JSON carries the backend as a suffix so per-backend runs (and their CI
# artifacts) never clobber each other.
perf:
	$(PYTHON) -m repro perf --quick --check \
		--out BENCH$(if $(REPRO_BACKEND),-$(REPRO_BACKEND)).json \
		$(if $(REPRO_BACKEND),--backend $(REPRO_BACKEND))
