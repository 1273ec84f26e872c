"""The frozen problem corpora and the per-seed op lists built from them.

The corpus under ``corpus/`` was written once by ``make_corpus.py`` and is
never regenerated at run time: the generators in ``dglift.randomgen`` call
the solver that later changes rewrite, so regenerating would let the code
under test choose its own inputs.  ``load_manifest`` checks every file
against the SHA-256 recorded beside it.

A workload seed turns the frozen files into one run's inputs using only
the code in this file:

* ``koszul-qq`` / ``koszul-fp``: the 40 reference modules over
  QQ[x0,x1,x2]/m^2 (resp. FF(7)[...]), with the ring generators, algebra
  variables and basis labels renamed by seeded letters (x_i -> a_i,
  X_i -> A_i, e_k -> m_k, say), in a seeded order.  Renaming keeps the
  declaration order, so every seed poses the same 40 problems as new
  texts at the same cost.  (Permuting the generators instead changes the
  elimination order and each op's cost; op_ms.p50 and p75 then spread by
  23-27% across seeds.)
* ``frontend``: the three golden files plus 147 files sampled by the seed
  from a pool of 400 generated problems, in a seeded order.  The sample is
  stratified on the files the parser wrongly rejects (13 of 400), so every
  seed carries the same number of them.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "manifest.json"

FRONTEND_SAMPLE = 147
HOMOLOGY_BIDEGREE = (3, 4)
FRONTEND_COMMANDS = (("validate",), ("obstruction",), ("check-lift", "--witness"),
                     ("homology", "--bidegree", "%d,%d" % HOMOLOGY_BIDEGREE))
# Letters that start no keyword, field or declared name of a Koszul file.
RENAME_LETTERS = "abcghkmnpqrstuvwz"
_KOSZUL_NAME = re.compile(r"\b(d?)([xXe])(\d+)\b")   # x_i, X_i, e_k, dX_i, de_k


def rename_koszul(text, ring_letter, label_letter):
    """Rename x_i -> <ring_letter>_i, X_i -> its capital, e_k -> <label_letter>_k."""
    letters = {"x": ring_letter, "X": ring_letter.upper(), "e": label_letter}
    return _KOSZUL_NAME.sub(lambda m: m.group(1) + letters[m.group(2)] + m.group(3),
                            text)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CorpusError(Exception):
    pass


SECTIONS = {"koszul-qq": ("koszul-qq",), "koszul-fp": ("koszul-fp",),
            "frontend": ("golden", "frontend")}


def load_manifest(workload):
    """The manifest, with the text of every file the workload reads.

    Each text is checked against the SHA-256 recorded for it.
    """
    try:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CorpusError("cannot read the corpus manifest: %s" % exc)
    for section in SECTIONS[workload]:
        for entry in manifest["files"][section]:
            try:
                text = (CORPUS / entry["file"]).read_text(encoding="utf-8")
            except OSError as exc:
                raise CorpusError("cannot read corpus file: %s" % exc)
            if sha256(text) != entry["sha256"]:
                raise CorpusError("corpus file %s does not match its recorded digest"
                                  % entry["file"])
            entry["text"] = text
    return manifest


@dataclass
class Problem:
    name: str           # file name inside the run's work directory
    text: str
    reference: dict     # manifest entry: expected verdicts, homology, known failure


@dataclass
class Op:
    index: int
    problem: Problem
    args: tuple         # command and flags; the file path is inserted after the command


def build_ops(manifest, workload, seed):
    """The problems and the ordered op list of one workload seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    files = manifest["files"]
    if workload in ("koszul-qq", "koszul-fp"):
        problems = []
        ring_letter, label_letter = rng.sample(RENAME_LETTERS, 2)
        for entry in files[workload]:
            problems.append(Problem(entry["file"].split("/")[-1],
                                    rename_koszul(entry["text"], ring_letter, label_letter),
                                    entry))
        rng.shuffle(problems)
        ops = [Op(i, p, ("check-lift", "--witness")) for i, p in enumerate(problems)]
    elif workload == "frontend":
        # Stratified so every seed carries the parser defect at the pool's rate.
        rejected = [e for e in files["frontend"] if "known_failure" in e]
        accepted = [e for e in files["frontend"] if "known_failure" not in e]
        n_rejected = round(FRONTEND_SAMPLE * len(rejected) / len(files["frontend"]))
        chosen = (files["golden"] + rng.sample(rejected, n_rejected)
                  + rng.sample(accepted, FRONTEND_SAMPLE - n_rejected))
        problems = [Problem(e["file"].replace("/", "-"), e["text"], e) for e in chosen]
        rng.shuffle(problems)
        ops = [Op(i * len(FRONTEND_COMMANDS) + k, p, cmd)
               for i, p in enumerate(problems)
               for k, cmd in enumerate(FRONTEND_COMMANDS)]
    else:
        raise ValueError("unknown workload %r" % workload)
    return problems, ops


def corpus_digest(problems, ops):
    """SHA-256 over exactly what the program receives, in order."""
    h = hashlib.sha256()
    for p in problems:
        h.update(("%s\n%s\n" % (p.name, sha256(p.text))).encode("utf-8"))
    for op in ops:
        h.update(("%s %s\n" % (op.problem.name, " ".join(op.args))).encode("utf-8"))
    return h.hexdigest()
