"""dglift benchmark: time to a verified verdict on frozen problem corpora.

Run from the repository root:

    python3 perfbench/run.py --workload koszul-qq --seed 0 --seconds 20 --trace 0

One op is one in-process ``dglift.cli.main([...])`` call on one problem
file with stdout captured, timed from the call (which reads the file) to
the returned JSON report.  Ops run one at a time in this process (a closed
loop with one client).  The run repeats whole passes over the seed's op
list until ``--seconds`` have been spent in ops, checks every output
outside the timed region (checks.py), and prints one JSON line with the
metrics last.  Times are corrected for machine drift (drift.py); the raw
times go to the results file beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per traced pass
(tracing.py).  Both append a record with the corpus digest to
``.perfbench_out/results.jsonl``, which ``compare.py`` reads; ``--trace 1``
also writes the spans to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.
"""

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from checks import check_all  # noqa: E402
from drift import DriftClock  # noqa: E402
from problems import SECTIONS, CorpusError, build_ops, corpus_digest, load_manifest  # noqa: E402
from tracing import COUNTERS, TARGETS, Tracer  # noqa: E402

SETUP_REPEATS = 21
# An op shorter than REPEAT_TARGET_S runs again, back to back, up to
# MAX_RUNS times in all, so that short ops get a median of several runs.
REPEAT_TARGET_S = 0.5
MAX_RUNS = 5
_TIMING = re.compile(r'"timing_ms": \d+')
_IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dglift; "
                "print(time.perf_counter() - t); print(dglift.__file__)")


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def reported_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, in order."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def import_dglift():
    """The dglift package from this checkout's src/, never an installed copy."""
    if not (SRC / "dglift" / "__init__.py").is_file():
        fail("no dglift package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import dglift
    if Path(dglift.__file__).resolve().parent != (SRC / "dglift").resolve():
        fail("imported dglift from %s, not from this checkout" % dglift.__file__)
    return dglift


def measure_setup():
    """Seconds of ``import dglift`` in fresh interpreters, timed inside each.

    Interpreter start-up is excluded; ``-I`` keeps the environment and the
    user site out of the child.  Returns the clock holding the times.
    """
    clock = DriftClock()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2 or not lines[1].startswith(str(SRC)):
            fail("timing the import failed: %s" % done.stderr.strip())
        clock.record(float(lines[0]))
        clock.flush()
    return clock


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a program bug: count the op as failed, keep going
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue(), error)


class Results:
    """Every op run, with each distinct output kept once for checking."""

    def __init__(self):
        self.clock = DriftClock()
        self.samples = []      # (op index, output number) per op run, in clock order
        self.outputs = {}      # op index -> distinct (code, stdout, stderr, error)
        self.passes = []       # (first sample, end sample, traced)
        self._seen = {}        # op index -> {normalised output: output number}

    def run_pass(self, cli, ops, paths, tracer=None, max_runs=MAX_RUNS):
        first = len(self.samples)
        for op in ops:
            argv = [op.args[0], paths[op.problem.name], *op.args[1:]]
            runs = spent = 0
            while runs == 0 or (runs < max_runs and spent < REPEAT_TARGET_S):
                if tracer is not None:
                    tracer.op = len(self.samples)
                elapsed, output = run_op(cli, argv)
                self.clock.record(elapsed)
                self._add(op, output)
                runs += 1
                spent += elapsed
        self.passes.append((first, len(self.samples), tracer is not None))
        return sum(self.clock.raw[first:])

    def _add(self, op, output):
        code, stdout, stderr, error = output
        key = (code, _TIMING.sub("", stdout), stderr, error)
        seen = self._seen.setdefault(op.index, {})
        if key not in seen:
            seen[key] = len(seen)
            self.outputs.setdefault(op.index, []).append(output)
        self.samples.append((op.index, seen[key]))

    def op_medians(self, times):
        """{op index: median of its run times}."""
        by_op = {}
        for (index, _), t in zip(self.samples, times):
            by_op.setdefault(index, []).append(t)
        return {index: statistics.median(ts) for index, ts in by_op.items()}

    def pass_seconds(self, times, traced=None):
        return [sum(times[a:b]) for a, b, t in self.passes if traced in (None, t)]


def run_passes(cli, ops, paths, seconds, tracer):
    """Whole passes until ``seconds`` of op time.

    With a tracer, untraced and traced passes alternate in the order
    U T T U, so that drift and warm-up fall on both kinds alike, and every
    op runs once per pass, so that per-pass counts repeat exactly.
    """
    results = Results()
    spent = 0.0
    while (not results.passes or spent < seconds
           or (tracer is not None and len(results.passes) < 2)):
        if tracer is None:
            spent += results.run_pass(cli, ops, paths)
        elif len(results.passes) % 4 in (1, 2):   # untraced, traced, traced, untraced
            tracer.install()
            try:
                spent += results.run_pass(cli, ops, paths, tracer, max_runs=1)
            finally:
                tracer.uninstall()
        else:
            spent += results.run_pass(cli, ops, paths, max_runs=1)
    results.clock.flush()
    return results


# -- metrics ------------------------------------------------------------------


def timing_metrics(setup, op_seconds):
    """Set-up median, and throughput and quantiles over the per-op medians."""
    ms = [t * 1000.0 for t in op_seconds]
    quartiles = statistics.quantiles(ms, n=4, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ms) / sum(op_seconds), "ops/s"),
        "op_ms.p50": (quartiles[1], "ms"),
        "op_ms.p75": (quartiles[2], "ms"),
    }


def per_layer(tracer, results, verify_s):
    """Per-layer metrics per traced pass (times drift-corrected), and diagnostics."""
    clock = results.clock
    scale = [s / r if r else 1.0 for s, r in zip(clock.scaled, clock.raw)]
    calls, self_s = tracer.summary(scale)
    traced = results.pass_seconds(clock.scaled, traced=True)
    untraced = results.pass_seconds(clock.scaled, traced=False)
    n = len(traced)
    out = {}
    for _, _, name, _ in TARGETS:
        out[name + ".calls"] = (calls[name] / n, "count")
        out[name + ".self_s"] = (self_s[name] / n, "s")
    for name in COUNTERS:
        out[name] = (tracer.counts[name] / n, "count")
    out["trace.count.self_s"] = (self_s["trace.count"] / n, "s")
    out["trace.overhead_share"] = (statistics.mean(traced) / statistics.mean(untraced) - 1,
                                   "ratio")
    out["verify.self_s"] = (verify_s, "s")
    out["machine.ref_kernel_s"] = (clock.kernel_median(), "s")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SECTIONS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    names = reported_metrics(args.trace)
    dglift = import_dglift()
    from dglift import cli
    try:
        manifest = load_manifest(args.workload)
    except CorpusError as exc:
        fail(str(exc))
    problems, ops = build_ops(manifest, args.workload, args.seed)
    digest = corpus_digest(problems, ops)
    tracer = Tracer() if args.trace else None

    setup = measure_setup()
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        work.mkdir(parents=True)
        paths = {}
        for p in problems:
            paths[p.name] = str(work / p.name)
            Path(paths[p.name]).write_text(p.text, encoding="utf-8")
        results = run_passes(cli, ops, paths, args.seconds, tracer)
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    start = time.perf_counter()
    outcomes = check_all(dglift, ops, results.outputs)
    verify_s = time.perf_counter() - start
    per_sample = [outcomes[key] for key in results.samples]
    attempted = len(per_sample)
    failed = sum(v != "ok" for v in per_sample)
    # A recorded parser defect counts as failed but leaves the outputs correct.
    correct = not any(v in ("failed", "wrong") for v in outcomes.values())

    clock = results.clock
    op_s = results.op_medians(clock.scaled)
    if tracer is None:
        metrics = timing_metrics(setup.scaled, list(op_s.values()))
        failed_ops = {index for (index, _), v in zip(results.samples, per_sample) if v != "ok"}
        metrics["ok_share"] = (1 - len(failed_ops) / len(ops), "ratio")
        metrics["peak_rss_mb"] = (rss, "MB")
    else:
        metrics = per_layer(tracer, results, verify_s)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "corpus_digest": digest, "correct": correct,
        "attempted": attempted, "failed": failed, "ops_per_pass": len(ops),
        "outcomes": dict(Counter(per_sample)),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "raw": {name: value for name, (value, _)
                in timing_metrics(setup.raw, list(results.op_medians(clock.raw).values())).items()},
        "op_ms": [round(op_s[op.index] * 1000, 4) for op in ops],
        "pass_s": results.pass_seconds(clock.scaled),
        "raw_pass_s": results.pass_seconds(clock.raw),
        "ref_kernel_s": clock.kernel_median(), "verify_s": verify_s,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        with open(OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed)), "w",
                  encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit), file=sys.stderr)
    print("%s seed %d: %d ops in %d passes, outcomes %s, corpus %s"
          % (args.workload, args.seed, attempted, len(results.passes),
             record["outcomes"], digest[:16]), file=sys.stderr)
    missing = [name for name in names if name not in metrics]
    if missing:
        fail("BENCHMARK.json names metrics this run does not measure: %s" % missing)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in names}}))


if __name__ == "__main__":
    main()
