"""Lightweight counter/gauge/histogram registry (no-op when disabled).

The simulator's :class:`~repro.stats.StatCounters` are *results*: they feed
the energy model and the golden bit-identity net, so nothing operational may
ever leak into them.  This registry is the operational side — how fast cells
complete, how many kernels were compiled, how utilised the workers
were — kept in a completely separate namespace that is **off by default**
and never serialised into result records.

Design constraints:

* **Disabled means free.**  Hot code never consults the registry per event;
  instrumentation points aggregate in locals (or already-existing state) and
  flush into the registry once per run/cell/batch, guarded by a single
  :func:`enabled` check at the boundary.  The <2% disabled-overhead bench
  gate in CI holds the subsystem to this.
* **No global mutable surprises.**  The default registry is module-level for
  convenience (the CLI and executor share it), but everything operates on an
  explicit :class:`MetricsRegistry` so tests can use private instances.
* **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot` renders
  sorted, JSON-able output so emitted metrics can be asserted and diffed.

Naming follows the ``<subsystem>.<metric>`` convention of the stat counters
(``campaign.cells_completed``, ``kernel.cache.miss``, ...).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "enabled",
    "enable",
    "disable",
    "render_openmetrics",
]


class Counter:
    """A monotonically increasing value (events seen, cells completed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (cells/sec, occupancy)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount


#: default histogram buckets: powers of two from 1us-ish scales upward work
#: for both durations (seconds) and sizes; callers pass their own when the
#: default is a poor fit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Histogram:
    """A bucketed distribution (cell durations, batch sizes).

    Cumulative bucket counts plus running sum/count/min/max — enough to
    report rates, averages and tail shape without keeping every sample.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent per
    name); asking for an existing name with a different instrument kind
    raises, so a typo never silently forks a metric.  Thread-safe: the
    executor updates metrics from the thread draining pool results while
    the CLI may snapshot concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(name, *args)
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_create(name, Histogram, buckets)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-able snapshot of every metric, sorted by name.

        Counters/gauges render as plain numbers; histograms as a dictionary
        with ``count``/``sum``/``mean``/``min``/``max`` and the cumulative
        per-bucket counts.
        """
        with self._lock:
            out: Dict[str, object] = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if isinstance(metric, (Counter, Gauge)):
                    out[name] = metric.value
                else:
                    assert isinstance(metric, Histogram)
                    out[name] = {
                        "count": metric.count,
                        "sum": metric.sum,
                        "mean": metric.mean,
                        "min": metric.min,
                        "max": metric.max,
                        "buckets": dict(
                            zip(
                                [str(b) for b in metric.buckets] + ["+Inf"],
                                metric.bucket_counts,
                            )
                        ),
                    }
            return out

    def dump(self) -> Dict[str, dict]:
        """Typed, JSON-able state of every metric, sorted by name.

        Unlike :meth:`snapshot` (a human/diff-friendly rendering that
        collapses counters and gauges to plain numbers), ``dump`` keeps the
        instrument kind so another registry can :meth:`merge` it without
        guessing — this is the wire format pool workers ship back to the
        campaign parent and the journal footer persists.
        """
        with self._lock:
            out: Dict[str, dict] = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if isinstance(metric, Counter):
                    out[name] = {"kind": "counter", "value": metric.value}
                elif isinstance(metric, Gauge):
                    out[name] = {"kind": "gauge", "value": metric.value}
                else:
                    assert isinstance(metric, Histogram)
                    out[name] = {
                        "kind": "histogram",
                        "buckets": list(metric.buckets),
                        "bucket_counts": list(metric.bucket_counts),
                        "count": metric.count,
                        "sum": metric.sum,
                        "min": metric.min,
                        "max": metric.max,
                    }
            return out

    def merge(self, dump: Dict[str, dict]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Deterministic and order-independent across a *set* of dumps:
        counters sum, gauges keep the maximum observed value, histograms
        merge bucket-wise (bucket bounds must match exactly — a mismatch
        raises ``ValueError`` rather than silently misbinning).  Merging the
        same dumps in any order therefore yields an identical registry,
        which is what makes a ``jobs=4`` metrics snapshot reproducible even
        though pool results arrive in a nondeterministic order.
        """
        for name in sorted(dump):
            entry = dump[name]
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(float(entry["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(max(gauge.value, float(entry["value"])))
            elif kind == "histogram":
                histogram = self.histogram(name, tuple(entry["buckets"]))
                if list(histogram.buckets) != list(entry["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ: "
                        f"{list(histogram.buckets)} vs {list(entry['buckets'])}"
                    )
                with self._lock:
                    for index, count in enumerate(entry["bucket_counts"]):
                        histogram.bucket_counts[index] += int(count)
                    histogram.count += int(entry["count"])
                    histogram.sum += float(entry["sum"])
                    for bound_name, pick in (("min", min), ("max", max)):
                        incoming = entry.get(bound_name)
                        if incoming is None:
                            continue
                        current = getattr(histogram, bound_name)
                        setattr(
                            histogram,
                            bound_name,
                            incoming if current is None else pick(current, incoming),
                        )
            else:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")

    def clear(self) -> None:
        """Drop every metric (test isolation / fresh runs)."""
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


def _openmetrics_name(name: str) -> str:
    """Map a dotted metric name onto the OpenMetrics charset.

    ``campaign.cells_completed`` -> ``campaign_cells_completed``; anything
    outside ``[a-zA-Z0-9_:]`` becomes ``_``, and a leading digit gets an
    underscore prefix so the result is always a valid exposition name.
    """
    sanitized = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch in "_:")) else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _openmetrics_number(value: float) -> str:
    """Render a sample value: whole floats without the trailing ``.0``."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def render_openmetrics(dump: Dict[str, dict]) -> str:
    """Render a :meth:`MetricsRegistry.dump` as OpenMetrics text exposition.

    The subset external scrapers (Prometheus and friends) understand:
    ``# TYPE`` metadata, ``_total`` counter samples, gauges, and histograms
    with cumulative ``le``-labelled buckets plus ``_count``/``_sum``,
    terminated by ``# EOF``.  Deterministic: names render sorted, so the
    same registry state always produces byte-identical text.
    """
    lines: List[str] = []
    for name in sorted(dump):
        entry = dump[name]
        om_name = _openmetrics_name(name)
        kind = entry.get("kind")
        if kind == "counter":
            lines.append(f"# TYPE {om_name} counter")
            lines.append(f"{om_name}_total {_openmetrics_number(entry['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {om_name} gauge")
            lines.append(f"{om_name} {_openmetrics_number(entry['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {om_name} histogram")
            cumulative = 0
            bounds = [str(bound) for bound in entry["buckets"]] + ["+Inf"]
            for bound, count in zip(bounds, entry["bucket_counts"]):
                cumulative += int(count)
                lines.append(f'{om_name}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f"{om_name}_count {int(entry['count'])}")
            lines.append(f"{om_name}_sum {_openmetrics_number(entry['sum'])}")
        else:
            raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


#: the process-wide default registry the CLI and executor share
registry = MetricsRegistry()

#: module-level switch; instrumentation boundaries check this exactly once
#: per run/cell/batch (never per event)
_ENABLED = False


def enabled() -> bool:
    """True when metrics collection is switched on for this process."""
    return _ENABLED


def enable() -> None:
    """Switch metrics collection on (idempotent)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Switch metrics collection off; already-collected values survive."""
    global _ENABLED
    _ENABLED = False
