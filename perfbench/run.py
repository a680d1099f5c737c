#!/usr/bin/env python3
"""docner benchmark: training and tagging throughput, tagging latency, set-up.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload short-finetune --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give every metric with its unit and sample count, the
environment, and for a traced run the per-layer table and the tracing
overhead. Results and spans are written under ``perfbench/results/``.

``--workload all`` runs every workload, each in its own process.
``--toy`` shrinks each workload to a few documents and one epoch.
``--record-reference`` rewrites ``reference.json`` from this checkout.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import os

# One process, one BLAS thread: d=64 matmuls gain nothing from BLAS
# threads, and the figures were tuned on a box with two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program() -> bool:
    """Put this checkout's src/ first on the path and import docner from it."""
    sys.path.insert(0, str(SRC))
    try:
        import docner
    except ImportError as exc:
        print(f"cannot import docner from {SRC}: {exc}", file=sys.stderr)
        return False
    if not Path(docner.__file__).resolve().is_relative_to(SRC):
        print(f"docner was imported from {docner.__file__}, not from {SRC}",
              file=sys.stderr)
        return False
    return True


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        # information only, not a gated metric
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_all(args) -> int:
    """Each workload in its own process; prints each one's output in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def record_reference() -> int:
    import measure
    import workloads
    reference = {name: measure.reference_run(workloads.WORKLOADS[name])
                 for name in WORKLOAD_NAMES}
    measure.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))
    return 0


def print_table(title: str, values: dict, units: dict, samples: dict | None = None):
    print(title)
    for name, value in values.items():
        n = f"  n={samples[name]}" if samples else ""
        print(f"  {name:<34} {value:>14.6g} {units.get(name, ''):<10}{n}")


def run_one(args) -> int:
    import measure
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    env = environment()
    result, tracer = measure.measure(workload, args.seed, args.seconds,
                                     bool(args.trace))
    result["environment"] = env

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}")
    e2e = result.get("end_to_end", {})
    print_table("end-to-end (untraced rounds)",
                {k: v for k, (v, _) in e2e.items()}
                | {"failed_ratio": result["failed_ratio"]},
                END_TO_END | {"failed_ratio": "ratio"},
                {k: n for k, (_, n) in e2e.items()}
                | {"failed_ratio": result["attempted"]})
    if "layers" in result:
        units = {k: ("s" if k.endswith("_s") else "") for k in result["layers"]}
        print_table("per layer, per traced round (self times)", result["layers"],
                    units | PER_LAYER)
        print_table("tracing overhead (relative slowdown of the traced rounds)",
                    result["tracing_overhead"], {})
        print("spans by name: calls, total s, self s (all traced rounds)")
        for name, row in sorted(result["span_table"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<28} {row['calls']:>9} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        if result["missing_hooks"]:
            print(f"hooks that found nothing to wrap or count: "
                  f"{result['missing_hooks']}")
    print("environment " + json.dumps(env))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    values = (result.get("layers", {}) if args.trace
              else {k: v for k, (v, _) in e2e.items()})
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    complete = set(units) <= set(values)
    print(json.dumps({"correct": result["failed"] == 0 and complete,
                      "attempted": max(result["attempted"], 1),
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.record_reference:
        return run_all(args)
    if not import_program():
        return 2
    return record_reference() if args.record_reference else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
