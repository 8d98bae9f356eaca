"""``python -m benchmarks.e2e`` — run a set, compare two, or write the
baseline.

    python -m benchmarks.e2e --seed 0 --output bench.json \\
        [--trace-out trace.json] [--smoke]
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e baseline A.json B.json

A set exits 1 when any output check failed or a workload's trace
coverage is under the gate; ``compare`` exits 1 on any ``worse`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import suite
from .spec import HERE


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        return suite.compare(_load(args.a), _load(args.b))
    if argv[:1] == ["baseline"]:
        p = argparse.ArgumentParser(prog="python -m benchmarks.e2e baseline")
        p.add_argument("sets", nargs="+")
        args = p.parse_args(argv[1:])
        doc = suite.baseline([_load(s) for s in args.sets])
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
        return 0

    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--smoke", action="store_true",
                   help="tenfold smaller inputs, 1 s runs, one round")
    args = p.parse_args(argv)
    doc = suite.run_set(args.seed, args.smoke, args.trace_out,
                        log=lambda s: print(s, file=sys.stderr))
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    suite.print_set(doc)
    for problem in doc["problems"]:
        print(f"GATE {problem}")
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
