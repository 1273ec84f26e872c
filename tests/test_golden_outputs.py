"""Byte-level pins of CLI output, apart from the timing field.

The pinned data in ``data/golden_outputs.json`` holds, for each golden
problem and each command below, the exit code, stderr and the full
JSON and text reports with ``timing_ms`` set to 0.  For a fixed sample
of the benchmark's frontend corpus it holds the SHA-256 of each
normalised JSON report.  For every file of the benchmark's koszul-fp and
koszul-qq corpora it holds the SHA-256 of the normalised JSON of
``check-lift --witness``, which pins each witness and null functional
byte for byte.
``collect_outputs()`` rebuilds the same structure from the current code;
the golden and frontend data were written by it at the commit before the
element classes were folded onto one linear-combination core, the
koszul-fp digests at the commit before the solver's transform became an
operation log; 16 of the 40 koszul-fp digests were written again when
the solver began to take the sparsest row as pivot, which changed those
null functionals and nothing else.  The koszul-qq digests, which pin
the Koszul family's null functionals over QQ, were written at the commit
before ``BlockMatrix`` stopped carrying basis labels.  When certificates
stopped stating the rank of their system, the entries of every output
holding a certificate were written again (the two golden check-lift
reports, 13 frontend digests, 22 koszul-fp and 22 koszul-qq digests);
each report lost its rank line and nothing else.  The check-lift
digests of every frontend file, 129 of which take the rank-2 path, were
written at the commit before the rank-2 corollary stopped building a
system of its own and began to solve the γ-system.  When rank-2 modules
began to carry the γ-system certificate, the entries holding a
rank-2-corollary certificate were written again (the two golden
check-lift reports, frontend samples f085, f187, f221 and f255, 67
frontend check-lift digests, and k18, k21 and k22 of both Koszul
corpora); each certificate took the γ-system head and row names, with
its values, their order and its pairing unchanged, and nothing else in
any report changed.  When the decision began to stop at the first label
whose equations make the γ-system inconsistent, the entries holding a
certificate were written again (the two golden check-lift reports, 13
frontend samples, 203 frontend check-lift digests, and 22 digests of
each Koszul corpus): each certificate gained "obstructed_at", its head
counts the unknowns and equations of the labels up to it, and its null
functional, a left null vector of those equations only, names none of a
later label; outside the certificates every byte stayed the same.  When
the text report of ``obstruction`` began to print its modules, which it
had dropped, the three golden ``obstruction`` text reports were written
again, and nothing else.  When the constructors began to settle each
undeclared internal degree with the degrees settled before it, the 13
frontend files the reader had rejected (f006 among them, a sample file)
began to parse, and their entries were written again: the f006 sample
and those 13 check-lift digests, and nothing else.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from dglift.cli import main
from dglift.dsl import ProblemDescription, parse_problem, print_problem
from dglift.randomgen import random_algebra, random_module, standard_rings

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "golden_outputs.json"
CORPUS = {family: ROOT / "perfbench" / "corpus" / family
          for family in ("frontend", "koszul-fp", "koszul-qq")}

GOLDEN_FILES = ("liftable.dgp", "nonliftable.dgp", "combined.dgp")
GOLDEN_COMMANDS = {
    "validate": ["validate"],
    "obstruction": ["obstruction"],
    "check-lift": ["check-lift", "--witness"],
    "homology": ["homology", "--bidegree", "3,4"],
    "delta": ["delta", "--element", "X*Y"],
}
FRONTEND_COMMANDS = ("validate", "obstruction", "check-lift", "homology")
# 23 evenly spaced pool files, and f006, whose dZ is homogeneous only under
# the internal degrees that dX and dY force
FRONTEND_SAMPLE = ["f%03d.dgp" % (17 * k) for k in range(23)] + ["f006.dgp"]
CORPUS_FILES = {family: sorted(p.name for p in folder.glob("*.dgp"))
                for family, folder in CORPUS.items()}


def normalise(text):
    text = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)
    return re.sub(r"\(\d+ ms\)\n$", "(0 ms)\n", text)


def run(path, command, fmt):
    head, *rest = GOLDEN_COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([head, str(path), *rest, "--format", fmt])
    return {"exit": code, "stdout": normalise(out.getvalue()),
            "stderr": err.getvalue()}


def golden_case(name, command):
    json_run = run(ROOT / "golden" / name, command, "json")
    text_run = run(ROOT / "golden" / name, command, "text")
    return {"exit": json_run["exit"], "stderr": json_run["stderr"],
            "json": json_run["stdout"], "text": text_run["stdout"]}


def frontend_case(name):
    out = {}
    for command in FRONTEND_COMMANDS:
        result = run(CORPUS["frontend"] / name, command, "json")
        if result["exit"]:
            out[command] = {"exit": result["exit"], "stderr": result["stderr"]}
        else:
            digest = hashlib.sha256(result["stdout"].encode("utf-8")).hexdigest()
            out[command] = {"exit": 0, "sha256": digest}
    return out


def check_lift_case(family, name):
    result = run(CORPUS[family] / name, "check-lift", "json")
    digest = hashlib.sha256(result["stdout"].encode("utf-8")).hexdigest()
    return {"exit": result["exit"], "stderr": result["stderr"], "sha256": digest}


def collect_outputs():
    return {
        "golden": {name: {command: golden_case(name, command)
                          for command in GOLDEN_COMMANDS}
                   for name in GOLDEN_FILES},
        "frontend": {name: frontend_case(name) for name in FRONTEND_SAMPLE},
        "frontend-check-lift": {name: check_lift_case("frontend", name)
                                for name in CORPUS_FILES["frontend"]},
        **{family: {name: check_lift_case(family, name)
                    for name in CORPUS_FILES[family]}
           for family in ("koszul-fp", "koszul-qq")},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
def test_golden_output_bytes(pinned, name, command):
    assert golden_case(name, command) == pinned["golden"][name][command]


@pytest.mark.parametrize("name", FRONTEND_SAMPLE)
def test_frontend_sample_digests(pinned, name):
    assert frontend_case(name) == pinned["frontend"][name]


def test_koszul_corpus_is_complete(pinned):
    for family in ("koszul-fp", "koszul-qq"):
        assert len(CORPUS_FILES[family]) == 40
        assert sorted(pinned[family]) == CORPUS_FILES[family]


def test_frontend_corpus_is_complete(pinned):
    assert len(CORPUS_FILES["frontend"]) == 400
    assert sorted(pinned["frontend-check-lift"]) == CORPUS_FILES["frontend"]


@pytest.mark.parametrize("name", CORPUS_FILES["koszul-fp"])
def test_koszul_certificate_digests(pinned, name):
    assert check_lift_case("koszul-fp", name) == pinned["koszul-fp"][name]


@pytest.mark.parametrize("name", CORPUS_FILES["koszul-qq"])
def test_koszul_qq_certificate_digests(pinned, name):
    assert check_lift_case("koszul-qq", name) == pinned["koszul-qq"][name]


def test_frontend_check_lift_digests(pinned):
    """Every frontend file's check-lift report; a failure names the files
    whose report changed."""
    differ = [name for name in CORPUS_FILES["frontend"]
              if check_lift_case("frontend", name) != pinned["frontend-check-lift"][name]]
    assert differ == []


# the frontend files whose dX is homogeneous only under the internal
# degrees that the earlier variables' differentials force
SETTLED_IN_ORDER = (6, 10, 26, 69, 94, 106, 126, 141, 158, 261, 302, 313, 387)


def test_files_weighted_by_earlier_differentials_parse_to_their_objects():
    """Each such file parses equal to the objects it was generated from, as
    ``perfbench/make_corpus.py`` builds them, and round-trips."""
    rings = standard_rings()
    for i in SETTLED_IN_ORDER:
        rng = random.Random(i)
        B = random_algebra(rng, rings[i % len(rings)])
        modules = {"M%d" % k: random_module(rng, B) for k in (1, 2, 3)}
        text = (CORPUS["frontend"] / ("f%03d.dgp" % i)).read_text(encoding="utf-8")
        problem = parse_problem(text)
        assert problem == ProblemDescription("R", B.ring, "B", B, modules), i
        assert parse_problem(print_problem(problem)) == problem, i
