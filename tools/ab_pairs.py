"""Alternating benchmark pairs: a git revision against the working tree.

Usage, from the repository root::

    python3 tools/ab_pairs.py REV --workload W --pairs N --seconds S

Checks REV out in a temporary ``git worktree`` and, for pair i = 1..N,
runs ``bench/run.py --workload W --seed i --seconds S --trace 0`` once in
each tree, REV first in odd pairs and the working tree first in even ones.
Each tree runs its own ``bench/run.py`` on its own ``src``.  Then it
prints, for each end-to-end metric that ``BENCHMARK.json`` declares, the
median of REV's runs (parent) and of the working tree's (change), the
interquartile range of the parent's runs, and the pairs in which the
change reads better, out of N (a tie counts for neither side).  The
worktree is removed at the end, also when a run fails; a failed run
stops the tool with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(pairs, metrics):
    """One row per metric: (name, unit, parent median, change median, parent IQR, wins).

    ``pairs`` is a sequence of (parent, change) dicts, each mapping a
    metric's name to its value in one run.  ``metrics`` is the
    ``end_to_end`` list of ``BENCHMARK.json``: dicts with ``name``,
    ``unit`` and ``better`` (``"lower"`` or ``"higher"``).  A win is a
    pair in which the change's value is strictly better than the
    parent's.  The IQR is the distance between the parent's quartiles
    (``statistics.quantiles``, inclusive method), 0 for a single pair.
    """
    rows = []
    for spec in metrics:
        name = spec["name"]
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            iqr = q3 - q1
        else:
            iqr = 0.0
        rows.append((name, spec["unit"], statistics.median(parent),
                     statistics.median(change), iqr, wins))
    return rows


def format_rows(rows, n_pairs: int) -> str:
    """The rows of :func:`summarize` as a fixed-width table."""
    lines = [f"{'metric':<18} {'unit':<10} {'parent':>12} {'change':>12} "
             f"{'parent IQR':>12} {'wins':>7}"]
    for name, unit, parent, change, iqr, wins in rows:
        lines.append(f"{name:<18} {unit:<10} {parent:>12.6g} {change:>12.6g} "
                     f"{iqr:>12.6g} {f'{wins}/{n_pairs}':>7}")
    return "\n".join(lines)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run of ``tree``'s benchmark, by name."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"bench run in {tree} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision, e.g. HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        added = subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), args.rev],
                               cwd=ROOT, check=False, capture_output=True, text=True)
        if added.returncode != 0:
            print(f"ab_pairs: cannot check out {args.rev}: {added.stderr.strip()}", file=sys.stderr)
            return 1
        try:
            pairs = []
            for seed in range(1, args.pairs + 1):
                trees = (parent_tree, ROOT) if seed % 2 else (ROOT, parent_tree)
                runs = {tree: run_bench(tree, args.workload, seed, args.seconds)
                        for tree in trees}
                pairs.append((runs[parent_tree], runs[ROOT]))
                print(f"pair {seed}: parent {runs[parent_tree]} change {runs[ROOT]}",
                      file=sys.stderr, flush=True)
        except RuntimeError as exc:
            print(f"ab_pairs: {exc}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                           cwd=ROOT, check=False, capture_output=True)
    print(f"{args.workload}: {args.rev} (parent) against the working tree (change), "
          f"{args.pairs} pairs of {args.seconds:g} s")
    print(format_rows(summarize(pairs, metrics), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
