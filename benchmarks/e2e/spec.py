"""Where the benchmark lives and what ``BENCHMARK.json`` declares.

Free of program imports, so a set and ``compare`` run without
``repro`` on the path.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("batch_d15", "batch_deep_d50", "stream_drift", "serve_mixed")

#: a traced run fails when layers explain less of the op time than this
MIN_COVERAGE = 0.95


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@contextmanager
def scratch_dir():
    """A private temporary directory inside the checkout (the benchmark
    writes nowhere else), removed afterwards with its parent when empty."""
    parent = ROOT / ".e2e_work"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            yield Path(tmp)
    finally:
        try:
            parent.rmdir()
        except OSError:
            pass                        # another run still uses it
