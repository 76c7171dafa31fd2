"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snap_churn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is imported from ``src/``; when
it is missing the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        return False
    sys.path.insert(0, src)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("snap_churn", "map_pressure", "snap_history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import measure  # imports the program; only after the path is set
    from catalog import UNITS

    machine = (f"python {platform.python_version()} on {platform.platform()},"
               f" nproc {os.cpu_count()}")
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" ({machine})")
    if args.trace:
        path = os.path.join(os.getcwd(), measure.spans_file(args.workload,
                                                            args.seed))
        result = measure.per_layer(args.workload, args.seed, spans_path=path)
        print(f"# traced {result['traced_s']:.3f}s vs untraced "
              f"{result['untraced_s']:.3f}s; self times within "
              f"{result['self_time_gap']:.4%} of traced host time; "
              f"{result['spans']} spans -> {path}")
    else:
        result = measure.end_to_end(args.workload, args.seed, args.seconds)
        samples = result["samples"]
        print(f"# {result['episodes']} episodes, {result['windows']} windows,"
              f" {result['measured_s']:.2f}s normalised CPU; samples: "
              f"{samples['write']} writes, "
              f"{samples['read']} reads, {samples['create']} creates, "
              f"{samples['activation']} activations, {samples['send']} sends;"
              f" oracle checked {result['reads_checked']} reads")
    attempted, failed = result["attempted"], result["failed"]
    failed_frac = failed / attempted if attempted else 0.0
    print(f"# failed_op_frac {failed_frac:.6f} ({failed}/{attempted} ops; "
          f"errors {result['errors']})")
    if not args.trace:
        print(f"# core.leaked_valid_bits {result['leaked_valid_bits']} "
              f"(fsck at end of run)")
        for name, value in result["op_metrics"].items():
            print(f"# {name} {value:.3f} {UNITS[name]}")
    for line in result["fsck_other"][:20]:
        print(f"# fsck: {line}")
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in result["metrics"].items()}
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
