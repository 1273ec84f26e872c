"""The benchmark's traced run must keep working against the package.

``perfbench/tracing.py`` wraps named functions and methods of dglift; a
rename there would break ``perfbench/run.py --trace 1``.  This test loads
the tracer from its file (read only), installs it, runs two ops, and
checks that uninstalling restores every original.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from dglift import cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target_objects(tracing):
    out = {}
    for module_name, path, name, _ in tracing.TARGETS:
        owner = importlib.import_module("dglift." + module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        out[name] = owner
    return out


def test_tracer_installs_and_uninstalls_against_the_package():
    tracing = load_tracing()
    originals = target_objects(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = target_objects(tracing)
        assert all(wrapped[name] is not originals[name] for name in originals)
        path = str(ROOT / "golden" / "combined.dgp")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["check-lift", path, "--witness"])]
            codes.append(cli.main(["homology", path, "--bidegree", "3,4"]))
        assert codes == [0, 0]
    finally:
        tracer.uninstall()
    assert target_objects(tracing) == originals
    traced = {span[0] for span in tracer.spans}
    for name in ("cli.main", "dsl.parse_problem", "obstruction.check_lift",
                 "linalg.linear_solve", "envelope.diagonal_diff_block"):
        assert name in traced
