"""Compare benchmark runs of a parent commit (A) and a change (B).

Usage::

    # compare records that run.py --out wrote, pair i of A with pair i of B
    python3 benchmarks/e2e/compare.py A.json B.json

    # or run the pairs first: alternate which checkout goes first
    python3 benchmarks/e2e/compare.py --run PARENT_DIR CHANGE_DIR \
        [--pairs 10] [--workload W] [--seed S] [--out-dir DIR]

For every (workload, end-to-end metric) row it prints each side's median
and quartiles, the share of pairs the change won (ties count for neither
side), and a verdict:

* ``improved`` — the change won at least 9/10 of the pairs and its
  median beats the parent's by more than the parent's own quartile
  spread;
* ``unresolved`` — fewer than 10 pairs, or the parent's quartile spread
  is wider than the metric's bound (unless every change run beats every
  parent run);
* ``worse`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes;
* ``unchanged`` — otherwise.

It also says whether the simulated outcome (the run digest) was
identical in every pair; a pure speed change must keep it so. Exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """The comparison row for one metric over paired runs.

    ``parent`` and ``change`` are equal-length value lists, pair ``i``
    being ``(parent[i], change[i])``.
    """
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    med_a, med_b = statistics.median(parent), statistics.median(change)
    quart_a = statistics.quantiles(parent, n=4) if n > 1 else [med_a] * 3
    quart_b = statistics.quantiles(change, n=4) if n > 1 else [med_b] * 3
    spread = quart_a[2] - quart_a[0]
    scale = abs(med_a) if med_a else 1.0
    gain = sign * (med_b - med_a)
    all_better = (min(change) > max(parent)) if sign > 0 \
        else (max(change) < min(parent))
    if n < MIN_PAIRS:
        outcome = "unresolved"
    elif wins >= WIN_SHARE * n and gain > spread:
        outcome = "improved"
    elif spread / scale > bound and not all_better:
        outcome = "unresolved"
    elif -gain / scale > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"pairs": n, "parent_median": med_a, "parent_quartiles":
            [quart_a[0], quart_a[2]], "change_median": med_b,
            "change_quartiles": [quart_b[0], quart_b[2]],
            "change_wins": wins, "parent_wins": losses,
            "win_share": wins / n if n else 0.0, "verdict": outcome}


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare(parent_records, change_records, spec):
    """{workload: {"rows": {metric: row}, "identical": bool}}."""
    by_workload = {}
    for side, records in (("a", parent_records), ("b", change_records)):
        for record in records:
            cell = by_workload.setdefault(record["workload"],
                                          {"a": [], "b": []})
            cell[side].append(record)
    result = {}
    for workload, cell in by_workload.items():
        pairs = list(zip(cell["a"], cell["b"]))
        if len(cell["a"]) != len(cell["b"]):
            raise SystemExit(f"{workload}: {len(cell['a'])} parent runs "
                             f"but {len(cell['b'])} change runs")
        for a, b in pairs:
            if (a["seed"], a["requests"]) != (b["seed"], b["requests"]):
                raise SystemExit(f"{workload}: a pair ran different "
                                 "seeds or sizes")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            usable = [(a["metrics"][name], b["metrics"][name])
                      for a, b in pairs
                      if name in a["metrics"] and name in b["metrics"]]
            if len(usable) < len(pairs):
                rows[name] = {"pairs": len(usable),
                              "verdict": "unresolved"}
                continue
            rows[name] = verdict([a for a, _ in usable],
                                 [b for _, b in usable],
                                 metric["better"], metric["bound"])
        identical = all(len(a["digests"]) == 1
                        and a["digests"] == b["digests"] for a, b in pairs)
        result[workload] = {"rows": rows, "identical": identical}
    return result


def _print(result):
    worse = False
    for workload, cell in result.items():
        print(f"== {workload}: simulated outcome identical in every "
              f"pair: {'yes' if cell['identical'] else 'NO'}")
        header = (f"{'metric':<24}{'parent median [q1, q3]':>36}"
                  f"{'change median [q1, q3]':>36}{'wins':>7}  verdict")
        print(header)
        for name, row in cell["rows"].items():
            worse |= row["verdict"] == "worse"
            if "parent_median" not in row:
                print(f"{name:<24}{'-':>36}{'-':>36}{'-':>7}  "
                      f"{row['verdict']}")
                continue
            a = "{:.6g} [{:.6g}, {:.6g}]".format(row["parent_median"],
                                                 *row["parent_quartiles"])
            b = "{:.6g} [{:.6g}, {:.6g}]".format(row["change_median"],
                                                 *row["change_quartiles"])
            wins = f"{row['change_wins']}/{row['pairs']}"
            print(f"{name:<24}{a:>36}{b:>36}{wins:>7}  {row['verdict']}")
        print()
    return worse


def run_pairs(parent_dir, change_dir, pairs, workload, seed, out_dir):
    """Alternate run.py in the two checkouts; returns the two out paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"a": os.path.join(out_dir, "A.json"),
             "b": os.path.join(out_dir, "B.json")}
    for path in paths.values():
        with open(path, "w", encoding="utf-8") as f:
            json.dump([], f)
    sides = [("a", parent_dir), ("b", change_dir)]
    for i in range(pairs):
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            cmd = [sys.executable, "benchmarks/e2e/run.py", "--seed",
                   str(seed), "--out", os.path.abspath(paths[side])]
            if workload:
                cmd += ["--workload", workload]
            print(f"pair {i + 1}/{pairs}, side {side.upper()}: {checkout}",
                  flush=True)
            subprocess.run(cmd, cwd=checkout, check=True,
                           stdout=subprocess.DEVNULL)
    return paths["a"], paths["b"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="A.json B.json",
                        help="run.py --out records of parent and change")
    parser.add_argument("--run", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="checkouts to run alternately first")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=os.path.join(
        ROOT, "benchmarks", "results", "e2e", "compare"))
    args = parser.parse_args(argv)
    if args.run:
        files = run_pairs(*args.run, args.pairs, args.workload, args.seed,
                          args.out_dir)
    elif len(args.files) == 2:
        files = args.files
    else:
        parser.error("give A.json B.json, or --run PARENT CHANGE")
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    result = compare(_load(files[0]), _load(files[1]), spec)
    return 1 if _print(result) else 0


if __name__ == "__main__":
    sys.exit(main())
