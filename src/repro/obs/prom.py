"""Prometheus text exposition for the metrics registry.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.
MetricsRegistry` snapshot in the Prometheus text exposition format
(version 0.0.4), the lingua franca every scrape pipeline understands:

* counters  → ``repro_<name>_total`` with ``# TYPE ... counter``,
* gauges    → ``repro_<name>`` with ``# TYPE ... gauge``,
* histograms → Prometheus *summaries*: ``{quantile="0.5|0.9|0.99"}``
  sample lines plus ``_sum`` and ``_count`` (our histograms keep exact
  count/sum and windowed percentiles — exactly a summary's shape).

Metric names are sanitized (dots → underscores) and prefixed ``repro_``.
Output is deterministic for a given snapshot: families sorted by the
original metric name, stable float formatting via ``repr``.

:func:`parse_prometheus` is the validating inverse the test suite
re-ingests exports through: it checks the grammar line by line (TYPE
before samples, sample names consistent with their family, parseable
values) and returns the parsed families.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = ["to_prometheus", "parse_prometheus", "prom_name"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)

_QUANTILES = ((0.5, 50.0), (0.9, 90.0), (0.99, 99.0))


def prom_name(name: str, prefix: str = "repro_") -> str:
    """Sanitize a registry metric name into a Prometheus metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = prefix + cleaned
    if not _NAME_OK.match(full):
        full = "_" + full
    return full


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render the registry in Prometheus text exposition format."""
    snap = registry.snapshot()
    lines: List[str] = []

    for name, value in snap["counters"].items():
        pname = prom_name(name, prefix) + "_total"
        lines.append(f"# HELP {pname} Counter {name!r} from the repro registry.")
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(value)}")

    for name, value in snap["gauges"].items():
        pname = prom_name(name, prefix)
        lines.append(f"# HELP {pname} Gauge {name!r} from the repro registry.")
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(value)}")

    for name, summary in snap["histograms"].items():
        pname = prom_name(name, prefix)
        lines.append(f"# HELP {pname} Histogram {name!r} from the repro registry.")
        lines.append(f"# TYPE {pname} summary")
        for q, pkey in _QUANTILES:
            key = f"p{int(pkey)}"
            lines.append(f'{pname}{{quantile="{q}"}} {_fmt(summary[key])}')
        lines.append(f"{pname}_sum {_fmt(summary['sum'])}")
        lines.append(f"{pname}_count {_fmt(summary['count'])}")

    return "\n".join(lines) + "\n"


def _family_of(sample_name: str) -> str:
    for suffix in ("_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse (and validate) text exposition; raises ``ValueError`` on errors.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``.
    """
    families: Dict[str, Dict[str, object]] = {}
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            _, _, fname, ftype = parts
            if ftype not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {ftype!r}")
            if fname in families:
                raise ValueError(f"line {lineno}: duplicate family {fname!r}")
            families[fname] = {"type": ftype, "samples": []}
            current = fname
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name = match.group("name")
        family = _family_of(name)
        if current is None or family != current:
            raise ValueError(
                f"line {lineno}: sample {name!r} outside its TYPE'd family "
                f"(current family: {current!r})"
            )
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for pair in match.group("labels").split(","):
                if "=" not in pair:
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
                key, _, val = pair.partition("=")
                if not (val.startswith('"') and val.endswith('"')):
                    raise ValueError(f"line {lineno}: unquoted label value {pair!r}")
                labels[key.strip()] = val[1:-1]
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            )
        samples: List[Tuple[str, Dict[str, str], float]] = families[current]["samples"]  # type: ignore[assignment]
        samples.append((name, labels, value))

    for fname, family in families.items():
        if not family["samples"]:
            raise ValueError(f"family {fname!r} has a TYPE line but no samples")
    return families
