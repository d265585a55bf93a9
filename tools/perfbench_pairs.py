#!/usr/bin/env python3
"""Runs the cell benchmark in alternating parent/change pairs.

    tools/perfbench_pairs.py PARENT_REV [--pairs 10] [--workload W]...
                             [--first-seed 1]
    tools/perfbench_pairs.py --self-test

Run from anywhere inside a checkout; the checkout is the change. The
parent commit PARENT_REV is exported with `git archive` into
.bench_build/pairs/parent-<commit>/ (kept, with its own benchmark build,
for the next call). For each workload (default: every workload
BENCHMARK.json lists) and each pair i, `python3 perfbench/run.py
--workload W --seed FIRST_SEED+i --seconds RUN_SECONDS --trace 0` runs
once in each tree, with the same seed on both sides (RUN_SECONDS is
BENCHMARK.json's run_seconds); even pairs run the parent first,
odd pairs the change first, so a drift of the host's speed favours
neither. Every result line is appended to
.bench_build/pairs/results-<parent>-<change>.jsonl.

For each end-to-end metric in BENCHMARK.json the summary prints the
parent's and the change's medians, the change's relative move, the
parent's Q1-Q3, the change's wins out of N pairs (strictly better in its
own pair), whether the medians are further apart than the parent's
Q1-Q3 span, and "WORSE" when the change's median is worse than the
parent's by more than the metric's bound (a fraction of the parent's
median). It writes nothing in the checkout outside .bench_build/.

Exit status: 0 when every run passed its correctness gate, 1 when a run
failed, 2 on a usage error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "pairs"


def fail(message, code=1):
    print(f"perfbench_pairs: {message}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)}: {proc.stderr.decode().strip()}", 2)
    return proc.stdout


def export_parent(rev):
    """The parent's tree under WORK, exported once per commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = WORK / f"parent-{commit[:12]}"
    if (tree / "BENCHMARK.json").is_file():
        return commit, tree
    WORK.mkdir(parents=True, exist_ok=True)
    partial = Path(tempfile.mkdtemp(prefix="export-", dir=WORK))
    archive = partial / "tree.tar"
    archive.write_bytes(git("archive", "--format=tar", commit))
    with tarfile.open(archive) as tar:
        tar.extractall(partial / "tree")
    archive.unlink()
    (partial / "tree").rename(tree)
    partial.rmdir()
    return commit, tree


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`: its result object, or None on failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def value(result, name):
    """A metric's value in a result object; None when it is absent."""
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def summarize(metrics, pairs):
    """The summary table of one workload's pairs.

    `metrics` is BENCHMARK.json's end_to_end list; `pairs` is a list of
    (parent result, change result) objects as perfbench prints them.
    """
    n = len(pairs)
    rows = [f"{'metric':<16} {'better':<6} {'parent':>10} {'change':>10} "
            f"{'move':>8} {'parent Q1-Q3':>21} {'wins':>6} {'gap>IQR':>7} "
            f"{'bound':>7}"]
    for m in metrics:
        name = m["name"]
        parent = [value(p, name) for p, _ in pairs]
        change = [value(c, name) for _, c in pairs]
        if None in parent or None in change:
            continue
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        q1, q3 = quartiles(parent)
        move = (c_med - p_med) / p_med * 100 if p_med else 0.0
        gap = "yes" if abs(c_med - p_med) > q3 - q1 else "no"
        worse = (c_med - p_med) if lower else (p_med - c_med)
        bound = "WORSE" if worse > m["bound"] * abs(p_med) else "ok"
        rows.append(f"{name:<16} {m['better']:<6} {p_med:>10.4g} "
                    f"{c_med:>10.4g} {move:>+7.1f}% "
                    f"{f'{q1:.4g}-{q3:.4g}':>21} {f'{wins}/{n}':>6} "
                    f"{gap:>7} {bound:>7}")
    return "\n".join(rows)


def failed(result):
    return (result is None or not result.get("correct", False)
            or result.get("failed", 0) != 0)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    if args.pairs < 1 or args.first_seed < 0:
        fail("--pairs must be >= 1, --first-seed >= 0", 2)
    for w in workloads:
        if w not in known:
            fail(f"unknown workload {w!r} (BENCHMARK.json has {known})", 2)

    parent, parent_tree = export_parent(args.parent)
    change = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    log = WORK / f"results-{parent[:12]}-{change[:12]}.jsonl"
    print(f"parent {parent[:12]} ({parent_tree.relative_to(ROOT)}), change "
          f"{change[:12]}{' + uncommitted changes' if dirty else ''}; "
          f"{args.pairs} pairs of {seconds:g} s runs; log {log}")
    ok = True
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            got = {}
            for side, tree in sides:
                result = run_once(tree, workload, seed, seconds)
                with open(log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "side": side, "result": result})
                            + "\n")
                if failed(result):
                    print(f"{workload} seed {seed}: the {side} run failed",
                          file=sys.stderr)
                    ok = False
                got[side] = result
            if all(r is not None for r in got.values()):
                pairs.append((got["parent"], got["change"]))
                print(f"  {workload} seed {seed}: cell_s_p50 "
                      f"{value(got['parent'], 'cell_s_p50')} -> "
                      f"{value(got['change'], 'cell_s_p50')}", flush=True)
        print(f"\n{workload}: {len(pairs)} pairs, seeds {args.first_seed}-"
              f"{args.first_seed + args.pairs - 1}")
        if pairs:
            print(summarize(spec["end_to_end"], pairs))
        print(flush=True)
    return 0 if ok else 1


def self_test():
    """Checks summarize() and failed() on canned result lines."""
    metrics = [{"name": "cell_s_p50", "better": "lower", "bound": 0.25},
               {"name": "cells_per_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]

    def line(p50, rate):
        return json.loads(
            '{"correct": true, "attempted": 60, "failed": 0, "metrics": {'
            f'"cell_s_p50": {{"value": {p50}, "unit": "s"}}, '
            f'"cells_per_s": {{"value": {rate}, "unit": "1/s"}}}}}}')

    pairs = [(line(0.0365, 27.0), line(0.0309, 31.0)),
             (line(0.0363, 27.5), line(0.0306, 27.5)),
             (line(0.0354, 28.0), line(0.0355, 29.0)),
             (line(0.0368, 26.0), line(0.0305, 33.0))]
    got = summarize(metrics, pairs).splitlines()
    problems = []
    if len(got) != 3:
        problems.append(f"want a header and 2 rows (setup_s is absent), "
                        f"got {len(got)} lines")
    else:
        p50, rate = got[1].split(), got[2].split()
        # medians 0.0364 / 0.03075, parent Q1-Q3 0.0361-0.0366 (inclusive)
        want_p50 = ["cell_s_p50", "lower", "0.0364", "0.03075", "-15.5%",
                    "0.03607-0.03657", "3/4", "yes", "ok"]
        want_rate = ["cells_per_s", "higher", "27.25", "30", "+10.1%",
                     "26.75-27.62", "3/4", "yes", "ok"]
        if p50 != want_p50:
            problems.append(f"cell_s_p50 row {p50}, want {want_p50}")
        if rate != want_rate:
            problems.append(f"cells_per_s row {rate}, want {want_rate}")
    # The same pairs read the other way round: cell_s_p50 +18.4% stays
    # inside its 25% bound, and a bound of 0.1 makes it a regression.
    swapped = [(c, p) for p, c in pairs]
    for bound, want in [(0.25, "ok"), (0.1, "WORSE")]:
        tight = [{**metrics[0], "bound": bound}]
        row = summarize(tight, swapped).splitlines()[1].split()
        if row[2:5] != ["0.03075", "0.0364", "+18.4%"] or row[-1] != want:
            problems.append(f"swapped cell_s_p50 row {row} with bound "
                            f"{bound}, want +18.4% and {want}")
    bad = line(0.03, 30.0)
    bad["correct"] = False
    for result, want in [(line(0.03, 30.0), False), (bad, True),
                         (None, True),
                         ({**line(0.03, 30.0), "failed": 2}, True)]:
        if failed(result) != want:
            problems.append(f"failed({result}) is {not want}")
    for p in problems:
        print(f"self-test: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(main(sys.argv[1:]))
