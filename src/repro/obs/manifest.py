"""The ``run_manifest.json`` written next to checkpoints.

One JSON document per run answering "what exactly ran": the full
parameter set, the adaptive-grid fingerprint (the same SHA-256 the
bitmap index and checkpoints carry, so artifacts cross-check), data-set
shape, the per-level lattice sizes, per-phase wall totals from the
span buffer and the virtual completion time on the simulated backend.

Schema (``pmafia-run-manifest/2``)::

    {
      "schema": "pmafia-run-manifest/2",
      "params": {...},                 # every MafiaParams field
      "n_records": int,
      "n_dims": int,
      "nprocs": int,
      "grid_fingerprint": "hex sha-256",
      "levels": [{"level", "n_cdus_raw", "n_cdus", "n_dense"}, ...],
      "n_clusters": int,
      "phases": {"grid": seconds, ...}, # from the writing rank's spans
      "virtual_seconds": float,         # 0.0 off the sim backend
      "serve": {...}                    # optional: serve_summary() of a
    }                                   # scoring session over the result

Rank 0 writes the manifest at the end of a run when observability is on
and a checkpoint directory is configured; the CLI writes one next to
``--trace-out`` / ``--metrics-out``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..io.bitmap_index import grid_fingerprint

SCHEMA = "pmafia-run-manifest/2"
MANIFEST_NAME = "run_manifest.json"


def build_manifest(result: Any, *, phases: dict[str, float],
                   nprocs: int = 1,
                   virtual_seconds: float = 0.0,
                   serve: dict[str, Any] | None = None
                   ) -> dict[str, Any]:
    """Assemble the manifest dict for a finished
    :class:`~repro.core.result.ClusteringResult`.

    ``serve`` attaches a :func:`repro.obs.serve_summary` of a scoring
    session run over the result (the CLI ``score`` subcommand's path);
    the key is omitted when ``None`` so clustering-only manifests are
    byte-identical to before.
    """
    params = result.params
    fields = getattr(params, "__dataclass_fields__", {})
    manifest = {
        "schema": SCHEMA,
        "params": {name: _plain(getattr(params, name)) for name in fields},
        "n_records": int(result.n_records),
        "n_dims": int(result.grid.ndim),
        "nprocs": int(nprocs),
        "grid_fingerprint": grid_fingerprint(result.grid).hex(),
        "levels": [{"level": t.level, "n_cdus_raw": t.n_cdus_raw,
                    "n_cdus": t.n_cdus, "n_dense": t.n_dense}
                   for t in result.trace],
        "n_clusters": len(result.clusters),
        "phases": {name: round(secs, 6)
                   for name, secs in phases.items()},
        "virtual_seconds": float(virtual_seconds),
    }
    if serve is not None:
        manifest["serve"] = serve
    return manifest


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _plain(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
