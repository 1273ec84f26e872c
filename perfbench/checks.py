"""Checks of every op output, made outside the timed region.

Verdicts are compared with the references recorded in the corpus manifest
(hand-known for the golden files, computed from the generated objects for
the rest), every certificate is re-checked with ``verify_certificate``,
every witness is recomputed, re-checked with ``verify_witness`` and
compared with the emitted one, obstruction values are compared with the
independent sigma_N d rho_N computation, and homology dimensions with
the recorded ones.
"""

import json
from types import SimpleNamespace

from problems import HOMOLOGY_BIDEGREE


class Checker:
    """Checks one op's output against the frozen references and re-verifies it."""

    def __init__(self, dglift):
        self.dglift = dglift
        self._parsed = {}

    def problem(self, problem):
        if problem.name not in self._parsed:
            self._parsed[problem.name] = self.dglift.parse_problem(problem.text)
        return self._parsed[problem.name]

    def check(self, op, output):
        """'ok', 'known' (a recorded parser defect), 'failed' or 'wrong'."""
        code, stdout, stderr, error = output
        ref = op.problem.reference
        if error is not None or code != 0:
            return "known" if error is None and "known_failure" in ref else "failed"
        try:
            doc = json.loads(stdout)
            problem = self.problem(op.problem)
            check = getattr(self, "_" + op.args[0].replace("-", "_"))
            return "ok" if check(problem, ref, doc["results"]) else "wrong"
        except Exception:  # malformed output or a verifier crash: not a valid answer
            return "wrong"

    def _validate(self, problem, ref, results):
        expected = [{"object": "ring", "name": problem.ring_name, "status": "valid"},
                    {"object": "algebra", "name": problem.algebra_name, "status": "valid"}]
        expected += [{"object": "module", "name": m, "status": "valid"}
                     for m in problem.modules]
        return results == expected

    def _tensor_entries(self, N, values):
        return [{"basis": lab, "value": str(values.get(lab, N.tensor_zero()))}
                for lab in N.labels]

    def _obstruction(self, problem, ref, results):
        # sigma_N d rho_N is computed independently of the structure-matrix formula
        expected = [{"module": name, "obstruction": self._tensor_entries(
                        N, self.dglift.obstruction_values(N, mode="splitting"))}
                    for name, N in problem.modules.items()]
        return results == expected

    def _check_lift(self, problem, ref, results):
        names = [r["module"] for r in results]
        if names != list(problem.modules) or set(names) != set(ref["modules"]):
            return False
        for entry in results:
            N = problem.modules[entry["module"]]
            if entry["decision"] != ref["modules"][entry["module"]]:
                return False
            if entry["decision"] == "LIFTABLE":
                report = self.dglift.check_lift(N)
                if not self.dglift.verify_witness(N, report.witness):
                    return False
                if entry.get("witness") != self._tensor_entries(N, report.witness):
                    return False
            elif not self.dglift.verify_certificate(
                    N, SimpleNamespace(certificate=entry["certificate"])):
                return False
        return True

    def _homology(self, problem, ref, results):
        return results == [{"bidegree": list(HOMOLOGY_BIDEGREE),
                            "dimension": ref["homology"]}]


def check_all(dglift, ops, outputs):
    """{(op index, output number): outcome} for every distinct output.

    ``outputs`` maps an op index to its distinct (code, stdout, stderr, error).
    """
    checker = Checker(dglift)
    by_index = {op.index: op for op in ops}
    return {(index, k): checker.check(by_index[index], output)
            for index, found in outputs.items()
            for k, output in enumerate(found)}
