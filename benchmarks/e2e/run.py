"""Run one workload of the end-to-end benchmark from a checkout's root.

    python3 benchmarks/e2e/run.py --workload batch_d15 --seed 0 \\
        --seconds 10 --trace 0

The program is imported from the checkout's own ``src/`` — never from an
installed copy — so the numbers always belong to the code beside this
file.  Without ``src/repro`` it exits 1 before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    SRC = ROOT / "src"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}; "
                 "run from the root of a full checkout")
    sys.path[0:1] = [str(SRC), str(ROOT)]
    from benchmarks.e2e.runner import main
    sys.exit(main())
