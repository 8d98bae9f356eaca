"""Serialisation of clustering results and compiled serving models.

pMAFIA's output — minimal DNF expressions per cluster — is meant for
the end user (§3.2), so the library exports results as plain
JSON-compatible dictionaries: grid geometry, per-level trace, and each
cluster's subspace, units, DNF and population.  ``result_from_dict``
round-trips everything, enabling result files, diffing runs, and the
command-line interface.

Two sizes of JSON output: :func:`result_to_json` defaults to the
compact encoding (``indent=None`` with tight separators — large
results stay one-third the pretty-printed size), and
:func:`write_result_json` streams the encoder's chunks straight to the
file instead of materialising one giant string.

The serving layer's compiled models have their own versioned format
(``pmafia-compiled-model``/2): :func:`model_to_dict` /
:func:`model_from_dict` carry the flat DNF condition table, cluster
metadata and the grid (``lo``/``hi``/``n_fine``/``cuts``) of every
serving dimension, so a model exported today recompiles identically on
load without shipping the full clustering result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO

import numpy as np

from ..errors import DataError, GridError
from ..params import MafiaParams
from ..types import Cluster, DimensionGrid, DNFTerm, Grid, Subspace
from .result import ClusteringResult, LevelTrace
from .units import UnitTable


#: version of the ``pmafia-result`` format; 2 defines each grid
#: dimension by its fine intervals (``lo``/``hi``/``n_fine``/``cuts``)
RESULT_VERSION = 2


def grid_to_dict(grid: Grid) -> dict[str, Any]:
    """The grid's defining fields (its edges are derived from them)."""
    return {"dims": dims_to_list(grid)}


def dims_to_list(dims) -> list[dict[str, Any]]:
    """Each :class:`DimensionGrid`'s defining fields."""
    return [{"dim": dg.dim, "lo": dg.lo, "hi": dg.hi, "n_fine": dg.n_fine,
             "cuts": list(dg.cuts), "thresholds": list(dg.thresholds),
             "uniform": dg.uniform} for dg in dims]


def dims_from_list(entries) -> tuple[DimensionGrid, ...]:
    """Inverse of :func:`dims_to_list`."""
    return tuple(
        DimensionGrid(dim=int(d["dim"]), lo=float(d["lo"]),
                      hi=float(d["hi"]), n_fine=int(d["n_fine"]),
                      cuts=tuple(int(c) for c in d["cuts"]),
                      thresholds=tuple(float(t) for t in d["thresholds"]),
                      uniform=bool(d["uniform"]))
        for d in entries)


def grid_from_dict(payload: dict[str, Any]) -> Grid:
    try:
        dims = dims_from_list(payload["dims"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed grid payload: {exc}") from exc
    return Grid(dims=dims)


def cluster_to_dict(cluster: Cluster) -> dict[str, Any]:
    return {
        "subspace": list(cluster.subspace.dims),
        "units_bins": cluster.units_bins.tolist(),
        "point_count": cluster.point_count,
        "dnf": [
            {"intervals": [[lo, hi] for lo, hi in term.intervals]}
            for term in cluster.dnf
        ],
    }


def cluster_from_dict(payload: dict[str, Any]) -> Cluster:
    try:
        subspace = Subspace(tuple(int(d) for d in payload["subspace"]))
        dnf = tuple(
            DNFTerm(subspace=subspace,
                    intervals=tuple((float(lo), float(hi))
                                    for lo, hi in term["intervals"]))
            for term in payload["dnf"])
        return Cluster(subspace=subspace,
                       units_bins=np.asarray(payload["units_bins"],
                                             dtype=np.int64),
                       dnf=dnf,
                       point_count=int(payload["point_count"]))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed cluster payload: {exc}") from exc


def trace_to_dict(trace: LevelTrace) -> dict[str, Any]:
    return {
        "level": trace.level,
        "n_cdus_raw": trace.n_cdus_raw,
        "n_cdus": trace.n_cdus,
        "n_dense": trace.n_dense,
        "dense_dims": trace.dense.dims.tolist(),
        "dense_bins": trace.dense.bins.tolist(),
        "dense_counts": np.asarray(trace.dense_counts).tolist(),
    }


def trace_from_dict(payload: dict[str, Any]) -> LevelTrace:
    try:
        level = int(payload["level"])
        dims = np.asarray(payload["dense_dims"], dtype=np.uint8)
        bins = np.asarray(payload["dense_bins"], dtype=np.uint8)
        if dims.size == 0:
            dense = UnitTable.empty(level)
        else:
            dense = UnitTable(dims=dims, bins=bins)
        return LevelTrace(
            level=level,
            n_cdus_raw=int(payload["n_cdus_raw"]),
            n_cdus=int(payload["n_cdus"]),
            n_dense=int(payload["n_dense"]),
            dense=dense,
            dense_counts=np.asarray(payload["dense_counts"], dtype=np.int64))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed trace payload: {exc}") from exc


def result_to_dict(result: ClusteringResult) -> dict[str, Any]:
    """The whole clustering as a JSON-compatible dictionary."""
    params = result.params
    params_dict = {
        field: getattr(params, field)
        for field in getattr(params, "__dataclass_fields__", {})
    }
    return {
        "format": "pmafia-result",
        "version": RESULT_VERSION,
        "n_records": result.n_records,
        "params": params_dict,
        "grid": grid_to_dict(result.grid),
        "clusters": [cluster_to_dict(c) for c in result.clusters],
        "trace": [trace_to_dict(t) for t in result.trace],
    }


def result_from_dict(payload: dict[str, Any]) -> ClusteringResult:
    """Inverse of :func:`result_to_dict` (params decode as MafiaParams
    when the fields fit, else stay a plain dict)."""
    if payload.get("format") != "pmafia-result":
        raise DataError("not a pmafia-result payload")
    if payload.get("version") != RESULT_VERSION:
        raise DataError(f"unsupported result version {payload.get('version')}")
    raw_params = dict(payload.get("params", {}))
    if isinstance(raw_params.get("bins", None), list):
        raw_params["bins"] = tuple(raw_params["bins"])
    params: Any = raw_params
    from ..params import CliqueParams
    for cls in (MafiaParams, CliqueParams):
        try:
            params = cls(**raw_params)
            break
        except Exception:
            continue
    return ClusteringResult(
        grid=grid_from_dict(payload["grid"]),
        clusters=tuple(cluster_from_dict(c) for c in payload["clusters"]),
        trace=tuple(trace_from_dict(t) for t in payload["trace"]),
        params=params,
        n_records=int(payload["n_records"]))


def result_to_json(result: ClusteringResult,
                   indent: int | None = None) -> str:
    """The clustering as a JSON string.

    The default ``indent=None`` is the compact encoding (no whitespace
    between tokens) — on a large result the pretty-printed form is
    ~3x the bytes, all of it spaces and newlines.  Pass ``indent=2``
    for a human-facing dump, or use :func:`write_result_json` to
    stream a big result to disk without building the string at all.
    """
    return json.dumps(result_to_dict(result), indent=indent,
                      separators=((",", ":") if indent is None else None))


def write_result_json(path_or_file: str | Path | IO[str],
                      result: ClusteringResult,
                      indent: int | None = None) -> None:
    """Stream the clustering as JSON to a path or open text file.

    Unlike ``write_text(result_to_json(...))`` this never materialises
    the whole document as one string: ``json.dump`` yields the encoder
    chunks straight into the file object.
    """
    separators = (",", ":") if indent is None else None
    if hasattr(path_or_file, "write"):
        json.dump(result_to_dict(result), path_or_file, indent=indent,
                  separators=separators)
        path_or_file.write("\n")
        return
    with open(path_or_file, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=indent,
                  separators=separators)
        fh.write("\n")


def result_from_json(text: str) -> ClusteringResult:
    """Parse a clustering back from :func:`result_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid result JSON: {exc}") from exc
    return result_from_dict(payload)


# -- compiled serving models --------------------------------------------

MODEL_FORMAT = "pmafia-compiled-model"
#: version 2 carries each serving dimension's grid
MODEL_VERSION = 2


def model_to_dict(model: Any) -> dict[str, Any]:
    """A compiled serving model as a versioned JSON-compatible dict.

    The payload carries the flat DNF condition table
    (:class:`repro.core.dnf.TermArrays`), cluster metadata and each
    serving dimension's grid (:func:`dims_to_list`) — the exact inputs of
    :func:`repro.serve.compile.compile_arrays` — so importing rebuilds
    a bit-identical evaluator without needing the original clustering
    result.
    """
    terms = model.terms
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "ndim": int(model.ndim),
        "clusters": [
            {"subspace": list(dims), "point_count": int(count)}
            for dims, count in zip(model.subspaces, model.point_counts)
        ],
        "grids": dims_to_list(model.grids),
        "terms": {
            "term_cluster": terms.term_cluster.tolist(),
            "cond_term": terms.cond_term.tolist(),
            "cond_dim": terms.cond_dim.tolist(),
            "cond_lo": terms.cond_lo.tolist(),
            "cond_hi": terms.cond_hi.tolist(),
        },
    }


def model_from_dict(payload: dict[str, Any]) -> Any:
    """Inverse of :func:`model_to_dict`: recompile the evaluator."""
    from ..core.dnf import TermArrays
    from ..serve.compile import compile_arrays

    if payload.get("format") != MODEL_FORMAT:
        raise DataError("not a pmafia-compiled-model payload")
    if payload.get("version") != MODEL_VERSION:     # 1 had no grids
        raise DataError(
            f"unsupported compiled-model version {payload.get('version')}; "
            f"re-export it from the result JSON (pmafia score RESULT.json "
            f"DATA --export-model MODEL.json)")
    try:
        t = payload["terms"]
        terms = TermArrays(
            n_clusters=len(payload["clusters"]),
            term_cluster=np.asarray(t["term_cluster"], dtype=np.int64),
            cond_term=np.asarray(t["cond_term"], dtype=np.int64),
            cond_dim=np.asarray(t["cond_dim"], dtype=np.int64),
            cond_lo=np.asarray(t["cond_lo"], dtype=np.float64),
            cond_hi=np.asarray(t["cond_hi"], dtype=np.float64))
        subspaces = [tuple(int(d) for d in c["subspace"])
                     for c in payload["clusters"]]
        counts = [int(c.get("point_count", 0))
                  for c in payload["clusters"]]
        ndim = int(payload["ndim"])
        grids = dims_from_list(payload["grids"])
    except (KeyError, TypeError, GridError) as exc:
        raise DataError(f"malformed compiled-model payload: {exc}") from exc
    return compile_arrays(terms, ndim, grids=grids, subspaces=subspaces,
                          point_counts=counts)


def model_to_json(model: Any, indent: int | None = None) -> str:
    """A compiled serving model as a JSON string (compact by default)."""
    return json.dumps(model_to_dict(model), indent=indent,
                      separators=((",", ":") if indent is None else None))


def model_from_json(text: str) -> Any:
    """Parse a compiled model back from :func:`model_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid compiled-model JSON: {exc}") from exc
    return model_from_dict(payload)
