"""Summarise one series of benchmark records, or compare two.

    python3 perfbench/compare.py HEAD.jsonl            # one series
    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl # base against head

A series is the file ``perfbench/run.py --record FILE`` appends to, one JSON
line per run (typically ten seeds per workload, ``--trace 0``, plus traced
runs).  For every workload and metric the table gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (distance
between the quartiles as a share of the median) and, for two series, the
change of the median in percent with its base value.  End-to-end metrics
carry their bound from ``BENCHMARK.json``: a spread above the bound reads
``NOISY``; a median that moved the wrong way by more than the bound reads
``WORSE``.  The exit code is 1 when any row reads ``WORSE`` or ``NOISY``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` over every record in ``path``."""
    series: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            group = series[(record["workload"], int(record["trace"]))]
            for name, item in record["metrics"].items():
                group[name].append(float(item["value"]))
    return series


def stats(values: List[float]) -> Tuple[float, float, float, float]:
    """Median, first and third quartile, and spread ``(q3 - q1) / median``."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def _specs() -> Dict[str, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {spec["name"]: spec for spec in bench["end_to_end"] + bench["per_layer"]}


def verdict(spec: Optional[dict], spread: float, delta: Optional[float]) -> str:
    bound = spec.get("bound") if spec else None
    if bound is None:
        return ""
    if spread > bound:
        return "NOISY"
    if delta is not None:
        worse = -delta if spec["better"] == "higher" else delta
        if worse > bound:
            return "WORSE"
    return "ok"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def table(base: Optional[dict], head: dict) -> Tuple[List[str], bool]:
    """The rendered rows, and whether any row failed its bound."""
    specs = _specs()
    header = (
        f"| {'Workload':<16} | {'Metric':<30} | {'Unit':<6} | {'Base median':>12} | "
        f"{'Head median':>12} | {'Head q1..q3':>23} | {'Spread':>7} | {'Delta':>9} | {'':<5} |"
    )
    sep = "-" * len(header)
    lines = [sep, header, sep]
    failed = False
    for key in sorted(head):
        workload, trace = key
        rows = head[key]
        for name in sorted(rows, key=lambda n: list(specs).index(n) if n in specs else len(specs)):
            median, q1, q3, spread = stats(rows[name])
            base_median: Optional[float] = None
            delta: Optional[float] = None
            if base is not None and name in base.get(key, {}):
                base_median = stats(base[key][name])[0]
                if base_median:
                    delta = (median - base_median) / abs(base_median)
            mark = verdict(specs.get(name), spread, delta)
            failed |= mark in ("NOISY", "WORSE")
            lines.append(
                f"| {workload + ('*' if trace else ''):<16} | {name:<30} | "
                f"{specs.get(name, {}).get('unit', ''):<6} | "
                f"{_fmt(base_median) if base_median is not None else '-':>12} | "
                f"{_fmt(median):>12} | {_fmt(q1) + '..' + _fmt(q3):>23} | "
                f"{spread:>7.2%} | {f'{delta:+.2%}' if delta is not None else '-':>9} | {mark:<5} |"
            )
        lines.append(sep)
    lines.append("(* traced runs: per-layer metrics; n = runs per workload: " + ", ".join(
        f"{w}{'*' if t else ''}={len(next(iter(head[(w, t)].values())))}" for w, t in sorted(head)
    ) + ")")
    return lines, failed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path, help="HEAD, or BASE HEAD")
    args = parser.parse_args(argv)
    if len(args.records) > 2:
        parser.error("give one series, or a base and a head series")
    base = load(args.records[0]) if len(args.records) == 2 else None
    head = load(args.records[-1])
    lines, failed = table(base, head)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
