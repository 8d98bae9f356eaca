"""Labeled counters, gauges and histograms for a (p)MAFIA run.

A :class:`MetricsRegistry` is per rank (one more labeled child per
metric family): ``registry.counter("io.bytes_read", kind="records")``
returns the counter for that exact label set, creating it on first use.
``snapshot()`` renders the whole registry as a plain nested dict —
stable key order, JSON-ready, picklable across the process backend —
and :func:`merge_snapshots` folds per-rank snapshots into run totals
(counters and histograms sum; gauges keep the maximum, being
last-observed levels rather than flows).

Everything here only *observes*: recording never touches the
communicator, its virtual clock or the cost-accounting hooks, which is
what keeps results and simulated runtimes bit-identical with metrics
enabled (asserted by ``tests/test_observability.py``).

Counter increments are plain int/float adds guarded by the GIL.
"""

from __future__ import annotations

from typing import Any, Iterable


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": _plain(self.value)}


class Gauge:
    """A last-observed level (set, not accumulated)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": _plain(self.value)}


class Histogram:
    """A distribution summary: count / sum / min / max plus power-of-two
    bucket counts (bucket ``i`` holds observations with
    ``2**(i-1) < v <= 2**i``; bucket 0 holds ``v <= 1``)."""

    kind = "histogram"
    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        bucket = 0 if value <= 1 else (int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "count": self.count,
                "sum": _plain(self.total),
                "min": _plain(self.vmin), "max": _plain(self.vmax),
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of labeled metric children, insertion
    ordered.  One registry per rank; snapshots merge across ranks."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _child(self, cls: type, name: str, labels: dict[str, Any]):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._child(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._child(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._child(Histogram, name, labels)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The registry as a plain dict, keyed by flat metric key."""
        return {key: metric.snapshot()
                for key, metric in self._metrics.items()}


def merge_snapshots(snapshots: Iterable[dict[str, dict[str, Any]]]
                    ) -> dict[str, dict[str, Any]]:
    """Fold per-rank snapshots into run totals: counters and histograms
    sum element-wise, gauges take the maximum across ranks."""
    merged: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        for key, entry in snap.items():
            have = merged.get(key)
            if have is None:
                merged[key] = _copy_entry(entry)
                continue
            if have["kind"] != entry["kind"]:
                raise TypeError(
                    f"metric {key!r} is {have['kind']} on one rank and "
                    f"{entry['kind']} on another")
            _fold_entry(have, entry)
    return merged


def _copy_entry(entry: dict[str, Any]) -> dict[str, Any]:
    out = dict(entry)
    if entry["kind"] == "histogram":
        out["buckets"] = dict(entry["buckets"])
    return out


def _fold_entry(have: dict[str, Any], entry: dict[str, Any]) -> None:
    kind = have["kind"]
    if kind == "counter":
        have["value"] += entry["value"]
    elif kind == "gauge":
        have["value"] = max(have["value"], entry["value"])
    else:
        have["count"] += entry["count"]
        have["sum"] += entry["sum"]
        have["min"] = _opt(min, have["min"], entry["min"])
        have["max"] = _opt(max, have["max"], entry["max"])
        for bucket, n in entry["buckets"].items():
            have["buckets"][bucket] = have["buckets"].get(bucket, 0) + n


def _opt(fn, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return fn(a, b)


def _plain(value):
    """Numpy scalars -> native Python numbers for JSON/pickle."""
    if value is None or isinstance(value, (int, float)):
        return value
    item = getattr(value, "item", None)
    return item() if callable(item) else value
