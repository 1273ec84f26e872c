"""Write the frozen benchmark corpus and its reference answers.

Run once from the repository root:

    python3 perfbench/make_corpus.py

It generates the problems with ``dglift.randomgen`` from fixed seeds,
prints them with the DSL pretty-printer and records, per file, its
SHA-256 and the reference answers computed from the generated objects
(never from the DSL, so files the parser rejects still have references).
The benchmark only reads what this script wrote; regenerating the corpus
changes every digest and makes earlier results incomparable.
"""

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from dglift import cli  # noqa: E402
from dglift.coefficients import QQ, BaseRing, PrimeField  # noqa: E402
from dglift.dsl import ProblemDescription, parse_problem, print_problem  # noqa: E402
from dglift.envelope import diagonal_homology_dim  # noqa: E402
from dglift.errors import DGLiftError  # noqa: E402
from dglift.free_dga import FreeDGAlgebra, Variable  # noqa: E402
from dglift.obstruction import check_lift  # noqa: E402
from dglift.randomgen import random_algebra, random_module, standard_rings  # noqa: E402

from problems import (CORPUS, HOMOLOGY_BIDEGREE, MANIFEST, RENAME_LETTERS,  # noqa: E402
                      rename_koszul, sha256)

KOSZUL_FILES = 40
FRONTEND_POOL = 400
# Verdicts known by hand (see the comments in golden/*.dgp).
GOLDEN = {"liftable.dgp": {"N": "LIFTABLE"},
          "nonliftable.dgp": {"M": "NOT_LIFTABLE"},
          "combined.dgp": {"N": "LIFTABLE", "M": "NOT_LIFTABLE"}}


def koszul_algebra(field):
    """R<X0,X1,X2 | dX_i = x_i> over R = field[x0,x1,x2]/m^2."""
    relations = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    ring = BaseRing(field, ("x0", "x1", "x2"), (1, 1, 1), relations)
    diffs = {"X%d" % i: {(0, 0, 0): ring.gen("x%d" % i)} for i in range(3)}
    return FreeDGAlgebra(ring, [Variable("X%d" % i, 1, 1) for i in range(3)], diffs)


def problem_text(B, modules):
    return print_problem(ProblemDescription("R", B.ring, "B", B, modules))


def write(rel, text):
    path = CORPUS / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return {"file": rel, "sha256": sha256(text)}


def cli_failure(text):
    """(exit code, stderr) of `dglift validate` on a text, or None if it passes."""
    scratch = CORPUS / ".probe.dgp"
    scratch.write_text(text, encoding="utf-8")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(scratch)])
    finally:
        scratch.unlink()
    return None if code == 0 else {"exit": code, "stderr": err.getvalue().strip()}


def koszul_entries(workload, field):
    B = koszul_algebra(field)
    out = []
    for seed in range(KOSZUL_FILES):
        N = random_module(random.Random(seed), B, max_rank=6, max_degree=6,
                          max_weight=6)
        text = problem_text(B, {"N": N})
        report = check_lift(N)
        for ring_letter, label_letter in zip(RENAME_LETTERS, RENAME_LETTERS[1:] + "a"):
            renamed = rename_koszul(text, ring_letter, label_letter)
            if print_problem(parse_problem(renamed)) != renamed:
                raise SystemExit("%s seed %d: renaming to %s, %s does not round-trip"
                                 % (workload, seed, ring_letter, label_letter))
        entry = write("%s/k%02d.dgp" % (workload, seed), text)
        entry.update(modules={"N": report.decision}, method=report.method)
        out.append(entry)
        print("%s k%02d %s %s" % (workload, seed, report.decision, report.method),
              flush=True)
    return out


def frontend_entries():
    rings = standard_rings()
    out = []
    for i in range(FRONTEND_POOL):
        rng = random.Random(i)
        B = random_algebra(rng, rings[i % len(rings)])
        modules = {"M%d" % k: random_module(rng, B) for k in (1, 2, 3)}
        text = problem_text(B, modules)
        entry = write("frontend/f%03d.dgp" % i, text)
        entry.update(modules={name: check_lift(N).decision for name, N in modules.items()},
                     homology=diagonal_homology_dim(B, *HOMOLOGY_BIDEGREE))
        failure = cli_failure(text)
        if failure is None:
            if parse_problem(text) != ProblemDescription("R", B.ring, "B", B, modules):
                raise SystemExit("frontend f%03d does not round-trip" % i)
        else:
            entry["known_failure"] = failure
        out.append(entry)
    return out


def golden_entries():
    out = []
    for name, verdicts in GOLDEN.items():
        text = (ROOT / "golden" / name).read_text(encoding="utf-8")
        problem = parse_problem(text)
        if {m: check_lift(N).decision for m, N in problem.modules.items()} != verdicts:
            raise SystemExit("golden %s disagrees with its hand-known verdicts" % name)
        entry = write("golden/%s" % name, text)
        entry.update(modules=verdicts,
                     homology=diagonal_homology_dim(problem.algebra, *HOMOLOGY_BIDEGREE))
        out.append(entry)
    return out


def main():
    if CORPUS.exists():
        shutil.rmtree(CORPUS)
    files = {"golden": golden_entries(), "frontend": frontend_entries(),
             "koszul-fp": koszul_entries("koszul-fp", PrimeField(7)),
             "koszul-qq": koszul_entries("koszul-qq", QQ)}
    MANIFEST.write_text(json.dumps({"files": files}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    failing = sum("known_failure" in e for e in files["frontend"])
    print("frontend pool: %d files, %d rejected by the parser" % (FRONTEND_POOL, failing))


if __name__ == "__main__":
    try:
        main()
    except DGLiftError as exc:
        raise SystemExit("generation failed: %s" % exc)
