"""Printing a result, the driver's one-line form of it, and ``--compare``."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from bench.metrics import END_TO_END
from bench.probes import PER_LAYER


def _number(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e12:
        return f"{int(value):d}"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def print_workload(result: Dict[str, object]) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"== {result['workload']}  seed {result['seed']}{'  QUICK' if result['quick'] else ''}  "
          f"{result['requests']} requests/repeat  trace {result['trace_digest'][:12]}")  # fmt: skip
    print(f"   why: {result['why']}")
    print(f"   setup.import_load_s {result['setup.import_load_s']:.3f} s   "
          f"bench.oracle_s {result['bench.oracle_s']:.3f} s ({result['oracle_requests']} requests served alone)")  # fmt: skip
    for index, repeat in enumerate(result["per_repeat"]):
        kind = "traced " if repeat["traced"] else "repeat "
        print(f"   {kind}{index}: sent {repeat['sent']}  succeeded {repeat['succeeded']}  failed {repeat['failed']}"
              f"   {repeat['steps']} steps  {repeat['wall_s']:.3f} s calibrated ({repeat['raw_wall_s']:.3f} s raw)")  # fmt: skip
        for request, why in repeat["failures"].items():
            print(f"      request {request}: {why}")
    print("   end-to-end: median over the untraced repeats (calibrated time; raw wall beside it, not gated)")
    for name, entry in result["end_to_end"].items():
        kind = "exact" if entry["exact"] else f"bound {entry['bound']:.2f}"
        raw = f"   raw.{name} {_number(entry['raw']['value'])}" if "raw" in entry else ""
        noisy = "   noisy: true" if entry["noisy"] else ""
        print(f"     {name:<22}{_number(entry['value']):>10} {entry['unit']:<9} iqr {_number(entry['iqr']):<8} "
              f"n {entry['n']}  {entry['better']:<6} {kind}{raw}{noisy}")  # fmt: skip
    if "per_layer" in result:
        print("   per-layer: the traced repeat (-> the end-to-end metric and workload it should move)")
        for name, entry in result["per_layer"].items():
            print(f"     {name:<34}{_number(entry['value']):>11} {entry['unit']:<6} -> {entry['moves']}")
    print(f"   {'CORRECT' if result['correct'] else 'FAILED'}: {result['failed']} of {result['attempted']} requests failed")


def driver_line(result: Dict[str, object], traced: bool) -> str:
    """The one JSON object the benchmark contract asks for on the last line."""
    lists = benchmark_lists()
    if traced:
        # The contract wants a number for every listed metric: a layer that
        # does not run on this workload, or a missing probe, reads 0.
        metrics = {
            spec["name"]: {"value": result["per_layer"][spec["name"]]["value"] or 0, "unit": spec["unit"]}
            for spec in lists["per_layer"]
        }
    else:
        metrics = {
            spec["name"]: {"value": result["end_to_end"][spec["name"]]["value"], "unit": spec["unit"]}
            for spec in lists["end_to_end"]
        }
    return json.dumps(
        {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(base: Dict[str, object], other: Dict[str, object]) -> Tuple[str, float]:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one metric, and other/base."""
    a, b = base["value"], other["value"]
    ratio = b / a if a else float("inf") if b else 1.0
    sign = 1.0 if base["better"] == "lower" else -1.0
    if base["exact"]:
        if a == b:
            return "same", ratio
        return ("worse" if sign * (b - a) > 0 else "better"), ratio
    worsening = sign * (b - a) / abs(a) if a else 0.0
    bound = base["bound"]
    spread = max(e["iqr"] / abs(e["value"]) if e["value"] else 0.0 for e in (base, other))
    overlap = min(base["values"]) <= max(other["values"]) and min(other["values"]) <= max(base["values"])
    if spread > bound and overlap:
        return "unresolved", ratio
    if worsening > bound:
        return "worse", ratio
    return ("better" if worsening < -bound else "same"), ratio


def compare(base: Dict[str, object], other: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present in both results."""
    rows = []
    for workload, a in base["workloads"].items():
        b = other["workloads"].get(workload)
        if b is None:
            continue
        for name in END_TO_END:
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            ea, eb = a["end_to_end"][name], b["end_to_end"][name]
            outcome, ratio = verdict(ea, eb)
            rows.append({"workload": workload, "metric": name, "unit": ea["unit"], "base": ea["value"],
                         "base_iqr": ea["iqr"], "other": eb["value"], "other_iqr": eb["iqr"], "ratio": ratio,
                         "bound": "exact" if ea["exact"] else ea["bound"], "verdict": outcome})  # fmt: skip
    return rows


def print_compare(rows: List[Dict[str, object]], base_path: str, other_path: str) -> None:
    print(f"base A = {base_path}   other B = {other_path}   ratio = B / A")
    print(f"{'workload':<16}{'metric':<22}{'A median':>11}{'A iqr':>9}{'B median':>11}{'B iqr':>9}{'B/A':>8}  {'bound':<6} verdict")
    for row in rows:
        bound = row["bound"] if row["bound"] == "exact" else f"{row['bound']:.2f}"
        print(f"{row['workload']:<16}{row['metric']:<22}{_number(row['base']):>11}{_number(row['base_iqr']):>9}"
              f"{_number(row['other']):>11}{_number(row['other_iqr']):>9}{row['ratio']:>8.3f}  {bound:<6} {row['verdict']}")  # fmt: skip
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("same", "better", "worse", "unresolved")}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))


def benchmark_lists() -> Dict[str, List[Dict[str, object]]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json, from the metric tables."""
    end_to_end = [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound, _) in END_TO_END.items()
        if name != "failed_share"  # always 0 on a correct run; the contract carries it as ``failed``
    ]
    per_layer = [{"name": name, "unit": unit, "better": better} for name, (unit, better, _) in PER_LAYER.items()]
    return {"end_to_end": end_to_end, "per_layer": per_layer}
