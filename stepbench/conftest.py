"""Self-tests import ``repro`` from this checkout's ``src``, as the runner does."""

from pathlib import Path

import run

run.use_source_tree(Path(__file__).resolve().parents[1])
