#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json sidecar against the committed
baseline and fail on regressions.

The micro-bench binaries (bench_hot_paths, bench_decision_latency,
bench_substrates) drop flat {"benchmark name": ns_per_op} maps into
their working directory; the repo commits blessed copies under
bench/baselines/. This script diffs the two so CI (or a human before
committing) can catch a hot-path regression without eyeballing console
tables:

    ./build/bench/bench_hot_paths      # writes ./BENCH_hot_paths.json
    tools/bench_diff.py BENCH_hot_paths.json

The baseline argument is optional: it defaults to the committed
bench/baselines/<basename of fresh> (resolved relative to the repo root,
so the two-argument form is only needed for ad-hoc A/B comparisons).

Exit status is nonzero when any benchmark present in BOTH files slowed
down by more than --threshold (default 25%). Added / removed benchmarks
are reported but never fail the diff - micro-bench sets are allowed to
evolve; their timings are not allowed to rot silently. Timings jitter
with machine load, so the default threshold is deliberately loose.
--fail-above expresses the same threshold as a percentage for automated
gates: the ctest perf smoke (`ctest -C perf -L perf`) runs each bench for
a fraction of a second and diffs the sidecar with --fail-above 400, so
only catastrophic regressions (an accidentally serialized parallel path,
a vectorized kernel falling back to scalar) fail the gate while ordinary
smoke-mode noise passes.

Benchmarks that got FASTER than the mirrored threshold are flagged as
improvements and summarized at the end: a large speedup either deserves a
refreshed baseline (so later regressions are judged against the new
normal) or indicates the benchmark no longer measures what it used to.
Improvements never affect the exit status.

Sidecars may also carry counter entries named "benchmark:counter" (e.g.
"BM_ServeServiceMemUs/100000/8:bytes_per_session"); those diff exactly
like timings (lower is better - the reporter deliberately excludes rate
counters) but are printed without the ns/op unit. --select RegEx
restricts the diff to matching entry names, so a gate can pin just the
memory counters of a combined sidecar.

--ratio 'NUM/DEN<=X' checks an invariant inside the fresh sidecar
instead of diffing against a baseline: the entry NUM divided by the entry
DEN must not exceed X. Host speed and load cancel in the ratio of two rows
from one run, so the bound can be far tighter than --fail-above's 5x:

    tools/bench_diff.py BENCH_hot_paths.json \
        --ratio 'BM_EnsembleInferBatch/1/BM_EnsembleForwardSequential<=0.6'

Entry names may contain '/', so the expression is split at the one '/'
whose two sides (spaces trimmed) are both entries of the sidecar. The
option repeats; with it, no baseline is read.
"""

import argparse
import json
import os
import re
import sys


def load(path: str) -> dict:
    # Exit with a one-line error, never a traceback: this runs inside
    # ctest perf gates where "the sidecar is missing/garbage" is an
    # expected failure mode (bench binary crashed, wrong cwd), not a bug
    # in the diff tool. ValueError covers json.JSONDecodeError AND
    # UnicodeDecodeError (a non-UTF-8 byte stream fails in the codec
    # before the JSON parser ever runs).
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if not isinstance(data, dict) or not all(
        isinstance(v, (int, float)) for v in data.values()
    ):
        sys.exit(f"bench_diff: {path} is not a flat name->ns_per_op map")
    return data


def parse_ratio(expr: str, entries: dict) -> tuple:
    """Splits 'NUM/DEN<=X' into (NUM, DEN, X), NUM and DEN being entries."""
    body, sep, bound = expr.partition("<=")
    try:
        limit = float(bound)
    except ValueError:
        limit = None
    if not sep or limit is None:
        sys.exit(f"bench_diff: bad --ratio {expr!r}: expected 'NUM/DEN<=X'")
    splits = []
    for i, ch in enumerate(body):
        if ch != "/":
            continue
        num, den = body[:i].strip(), body[i + 1:].strip()
        if num in entries and den in entries:
            splits.append((num, den))
    if len(splits) != 1:
        why = "no" if not splits else "more than one"
        sys.exit(f"bench_diff: bad --ratio {expr!r}: {why} way to split it "
                 "into two entries of the sidecar")
    return splits[0] + (limit,)


def check_ratios(fresh: dict, exprs: list) -> int:
    failed = 0
    for expr in exprs:
        num, den, limit = parse_ratio(expr, fresh)
        if fresh[den] <= 0:
            sys.exit(f"bench_diff: --ratio denominator {den} is "
                     f"{fresh[den]}, not positive")
        ratio = fresh[num] / fresh[den]
        verdict = "ok" if ratio <= limit else "ABOVE BOUND"
        failed += ratio > limit
        print(f"{num} / {den} = {fresh[num]:.1f} / {fresh[den]:.1f} = "
              f"{ratio:.3f} (bound {limit:g}): {verdict}")
    if failed:
        print(f"\n{failed} ratio(s) above their bound", file=sys.stderr)
        return 1
    print(f"\nOK: {len(exprs)} ratio(s) within their bound")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two benchmark JSON sidecars; fail on regressions."
    )
    parser.add_argument("fresh", help="newly generated BENCH_*.json")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="baseline BENCH_*.json; default: the committed "
        "bench/baselines/<basename of fresh>",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fail when fresh > baseline * (1 + threshold); default 0.25",
    )
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="PCT",
        help="threshold expressed as a percentage (overrides --threshold): "
        "fail when fresh > baseline * (1 + PCT/100). Intended for automated "
        "gates - e.g. --fail-above 400 in the ctest perf smoke only fails on "
        "catastrophic regressions, since smoke-mode timings are noisy.",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="REGEX",
        help="only diff entries whose name matches REGEX (re.search); lets "
        "a gate pin a subset (e.g. ':(bytes_per_session|rss_mb)') of a "
        "combined sidecar",
    )
    parser.add_argument(
        "--ratio",
        action="append",
        metavar="'NUM/DEN<=X'",
        help="check that fresh[NUM] / fresh[DEN] <= X instead of diffing "
        "against a baseline (repeatable); entry names may contain '/'",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available entry names (after --select filtering) "
        "of the fresh sidecar and the baseline instead of diffing; handy "
        "for composing --select patterns against a combined sidecar",
    )
    args = parser.parse_args()
    if args.fail_above is not None:
        if args.fail_above < 0:
            sys.exit("bench_diff: --fail-above must be >= 0")
        args.threshold = args.fail_above / 100.0
    if args.threshold < 0:
        sys.exit("bench_diff: --threshold must be >= 0")

    if args.ratio:
        return check_ratios(load(args.fresh), args.ratio)

    if args.baseline is None:
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        args.baseline = os.path.join(
            repo, "bench", "baselines", os.path.basename(args.fresh)
        )
        print(f"bench_diff: baseline {args.baseline}")

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    if args.select is not None:
        try:
            pattern = re.compile(args.select)
        except re.error as e:
            sys.exit(f"bench_diff: bad --select regex: {e}")
        fresh = {k: v for k, v in fresh.items() if pattern.search(k)}
        baseline = {k: v for k, v in baseline.items() if pattern.search(k)}

    if args.list:
        # Enumeration mode: show what a gate's --select would see. Never
        # fails - an empty selection is exactly what the caller is
        # debugging.
        for label, entries in (("fresh", fresh), ("baseline", baseline)):
            print(f"{label}: {len(entries)} entr"
                  f"{'y' if len(entries) == 1 else 'ies'}")
            for name in sorted(entries):
                print(f"  {name}")
        return 0

    common = sorted(fresh.keys() & baseline.keys())
    added = sorted(fresh.keys() - baseline.keys())
    removed = sorted(baseline.keys() - fresh.keys())

    regressions = []
    improvements = []
    width = max((len(n) for n in common), default=0)
    # Timing entries are ns/op; "benchmark:counter" entries are raw counter
    # values and carry no unit.
    def unit(name: str) -> str:
        return "" if ":" in name else " ns/op"

    for name in common:
        old, new = baseline[name], fresh[name]
        ratio = new / old if old > 0 else float("inf") if new > 0 else 1.0
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, old, new, ratio))
        elif ratio < 1.0 / (1.0 + args.threshold):
            flag = "  improved"
            improvements.append((name, old, new, ratio))
        print(f"{name:<{width}}  {old:>14.1f} -> {new:>14.1f}{unit(name)} "
              f"({ratio:>6.2f}x){flag}")

    for name in added:
        print(f"{name}: added ({fresh[name]:.1f}{unit(name)})")
    for name in removed:
        print(f"{name}: removed (was {baseline[name]:.1f}{unit(name)})")

    if not common:
        sys.exit("bench_diff: no benchmarks in common - wrong file pair "
                 "or over-tight --select?")

    if improvements:
        print(f"\n{len(improvements)} improvement(s) beyond "
              f"{args.threshold:.0%} (consider refreshing the baseline):")
        for name, old, new, ratio in improvements:
            print(f"  {name}: {old:.1f} -> {new:.1f}{unit(name)} "
                  f"({old / new:.2f}x faster)")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, old, new, ratio in regressions:
            print(f"  {name}: {old:.1f} -> {new:.1f}{unit(name)} "
                  f"({ratio:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} benchmarks within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
