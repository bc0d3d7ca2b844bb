"""Command line of the benchmark.

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``):

* no ``--trace``: the full report — for each workload (all five by default,
  each in its own subprocess) the untraced repeats, the traced repeat and the
  profile pass; every metric printed by name with its unit; ``--json OUT``
  keeps the numbers for ``--compare``.  Exit status 1 on a correctness failure.
* ``--workload W --seed N --seconds S --trace 0|1``: the benchmark driver's
  form — one workload, untraced repeats only (``0``) or the traced repeat
  (``1``), and one JSON object on the last line of standard output.
* ``--compare A.json B.json``: verdict per workload and end-to-end metric;
  exit status 1 on any ``worse``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: the host has two cores and a second
# thread would make the yardstick and the program contend differently run to run.
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

OUT_DIR = BENCH_DIR / "out"


def parse_args(argv=None) -> argparse.Namespace:
    from bench.workloads import DEFAULT_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0, help="seeds the workload generator only")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring budget of the untraced repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--quick", action="store_true", help="smoke run: one repeat of one eighth of each trace")
    parser.add_argument("--json", metavar="OUT", help="write every number to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload in this process."""
    started = time.perf_counter()
    from bench import program, session

    try:
        weights, corpus = program.load_model()
    except ImportError as error:  # the program under test is not in this checkout
        raise SystemExit(f"bench: cannot import the program under test from {ROOT / 'src'}: {error}")
    import_load_s = time.perf_counter() - started
    measured = session.Session(name, args.seed, args.quick, import_load_s, weights, corpus)
    layer = None
    if args.trace != 1:
        measured.run_untraced(args.seconds, repeats=1 if args.quick else None)
    if args.trace != 0:
        layer = measured.run_traced(OUT_DIR)
    return measured.result(layer)


def run_children(names, args: argparse.Namespace) -> dict:
    """One subprocess per workload, one at a time (fresh RSS, no contention)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        out = OUT_DIR / f"{name}.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--json", str(out)] + (["--quick"] if args.quick else [])  # fmt: skip
        status = subprocess.run(command, cwd=ROOT).returncode
        if not out.exists():
            raise SystemExit(f"bench: workload {name} exited with status {status} and no result")
        results[name] = json.loads(out.read_text())["workloads"][name]
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    from bench import report
    from bench.clock import YARDSTICK_REF_US
    from bench.workloads import WORKLOADS

    if args.compare:
        base, other = (json.loads(Path(path).read_text()) for path in args.compare)
        rows = report.compare(base, other)
        report.print_compare(rows, *args.compare)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    names = args.workload or list(WORKLOADS)
    if args.trace is not None and len(names) != 1:
        raise SystemExit("bench: --trace needs exactly one --workload")
    if len(names) == 1:
        results = {names[0]: run_workload(names[0], args)}
        if args.trace is None:
            report.print_workload(results[names[0]])
    else:
        results = run_children(names, args)
    if args.json:
        document = {"benchmark": "bench", "seed": args.seed, "quick": args.quick, "seconds": args.seconds,
                    "yardstick_ref_us": YARDSTICK_REF_US, "workloads": results}  # fmt: skip
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    if args.trace is not None:
        print(report.driver_line(results[names[0]], traced=bool(args.trace)))
        return 0
    failed = {name: r["failed"] for name, r in results.items() if not r["correct"]}
    if len(names) > 1:
        print(f"== {len(names)} workloads: " + ("all correct" if not failed else f"FAILED requests {failed}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
