"""Command-line experiment runner.

Run every paper experiment (or a named subset of experiments and
fast-path guards) outside pytest::

    python -m repro.bench                      # all paper experiments
    python -m repro.bench fig9 table4          # a subset
    python -m repro.bench --smoke perfguard    # a guard, CI-sized
    python -m repro.bench --list               # available names

Each run prints its tables/figures and its checks, and saves its
output under ``results/``.  Exit status is ``EXIT_FAILURES`` if any
check fails.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from repro.bench import ALL_EXPERIMENTS, GUARDS
from repro.cli import EXIT_FAILURES, EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures and run "
                    "the fast-path guards.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment or guard names "
                             "(default: all paper experiments)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and guards, "
                             "then exit")
    parser.add_argument("--no-save", action="store_true",
                        help="do not write results/ files")
    parser.add_argument("--smoke", action="store_true",
                        help="run guards at CI size (experiments ignore it)")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and "
                             "print the hottest functions")
    parser.add_argument("--profile-limit", type=int, default=25,
                        help="rows of profile output (default 25)")
    args = parser.parse_args(argv)

    if args.list:
        for name in [*ALL_EXPERIMENTS, *GUARDS]:
            print(name)
        return EXIT_OK

    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS
               and n not in GUARDS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     f"(use --list)")

    failures = 0
    for name in names:
        run = (functools.partial(GUARDS[name], smoke=args.smoke)
               if name in GUARDS else ALL_EXPERIMENTS[name])
        started = time.perf_counter()
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            result = profiler.runcall(run)
            elapsed = time.perf_counter() - started
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("tottime").print_stats(args.profile_limit)
        else:
            result = run()
            elapsed = time.perf_counter() - started
        print(result.render())
        print(f"(wall-clock {elapsed:.1f}s)")
        print()
        if not args.no_save:
            result.save()
        if not result.passed():
            failures += 1
    if failures:
        print(f"{failures} experiment(s) failed their checks",
              file=sys.stderr)
        return EXIT_FAILURES
    print(f"all {len(names)} experiment(s) passed their checks")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
