"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHILD.jsonl

Each file holds records appended by ``run.py --trace 0`` (by default to
``.perfbench_out/results.jsonl``); run each side on the same seeds,
alternating which side runs first.  Runs of one workload and seed must
have fed the program the same corpus: the comparison is refused (exit 2)
when their corpus digests differ.

Each workload x end-to-end metric is reported as

* better      -- the child wins at least 9 in 10 seed pairs and the medians
                 differ by more than the parent's quartile distance;
* worse       -- the child's median is worse than the parent's by more than
                 the metric's bound in BENCHMARK.json;
* unresolved  -- neither, and the run-to-run spread (quartile distance over
                 median) of either side is wider than the bound, unless
                 every child run beats every parent run;
* same        -- within the bound.

The exit code is 1 when any pair is worse.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r["trace"] == 0]


def digests(records):
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["seed"]), set()).add(r["corpus_digest"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def classify(parent, child, better, bound):
    """(verdict, signed change of the median as a share, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles([v for _, v in parent])
    c1, cm, c3 = quartiles([v for _, v in child])
    worse_by = sign * (cm - pm) / pm
    wins = lambda p, c: sign * (c - p) < 0  # noqa: E731
    child_by_seed = dict(child)
    pairs = [(p, child_by_seed[s]) for s, p in parent if s in child_by_seed]
    won = sum(wins(p, c) for p, c in pairs)
    if pairs and won >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1 and worse_by < 0:
        return "better", worse_by
    if worse_by > bound:
        return "worse", worse_by
    all_better = all(wins(p, c) for _, p in parent for _, c in child)
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not all_better:
        return "unresolved", worse_by
    return "same", worse_by


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, child = load(argv[0]), load(argv[1])
    p_dig, c_dig = digests(parent), digests(child)
    clash = sorted(k for k in p_dig.keys() & c_dig.keys() if p_dig[k] != c_dig[k]
                   or len(p_dig[k]) > 1)
    if clash:
        print("refused: corpus digests differ for %s" % clash, file=sys.stderr)
        return 2
    bad = [(r["workload"], r["seed"]) for r in parent + child if not r["correct"]]
    if bad:
        print("warning: runs with incorrect outputs: %s" % bad, file=sys.stderr)
    worse = False
    print("%-10s %-12s %-6s %27s %27s %8s %6s  %s" % (
        "workload", "metric", "unit", "parent median [q1, q3] n",
        "child median [q1, q3] n", "change", "bound", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in child if r["workload"] == workload]
        if not p_runs or not c_runs:
            print("%-10s (no runs on %s)" % (workload, "parent" if not p_runs else "child"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [(r["seed"], r["metrics"][name]) for r in p_runs]
            c = [(r["seed"], r["metrics"][name]) for r in c_runs]
            verdict, change = classify(p, c, metric["better"], metric["bound"])
            worse |= verdict == "worse"
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles([v for _, v in values])
                cells.append("%.4g [%.4g, %.4g] %d" % (med, q1, q3, len(values)))
            print("%-10s %-12s %-6s %27s %27s %+7.1f%% %6.3f  %s" % (
                workload, name, metric["unit"], cells[0], cells[1], 100 * change,
                metric["bound"], verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
