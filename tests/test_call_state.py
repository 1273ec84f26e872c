"""No state outlives one ``cli.main`` call.  The benchmark runs each op up
to five times back to back in one process, so a cache that survived a
call would time its hits, not the work.  Three ``check-lift --witness``
calls on one file must each enumerate the same bases, leave every
container reachable from a dglift module global at the size it had
before them, and print the same report."""

import re
import sys
import types
from pathlib import Path

from dglift import coefficients
from dglift.cli import main

from conftest import GOLDEN

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def dglift_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "dglift" or name.startswith("dglift.")]


def reachable_items(modules):
    """The number of entries of the containers reachable from the globals
    of ``modules``: dicts, lists, tuples and sets, the attribute dicts of
    the objects they hold, and the class dicts of dglift classes; modules,
    functions and other classes are not entered."""
    seen, count = set(), 0
    stack = [value for module in modules for key, value in vars(module).items()
             if not key.startswith("__")]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            count += len(obj)
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            count += len(obj)
            stack.extend(obj)
        elif isinstance(obj, type):
            if obj.__module__.startswith("dglift"):
                count += len(vars(obj))
                stack.extend(vars(obj).values())
        elif isinstance(obj, (types.ModuleType, types.FunctionType,
                              types.BuiltinFunctionType, types.MethodType)):
            continue
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return count


def test_repeated_calls_redo_all_their_work_and_keep_nothing(monkeypatch, capsys):
    original = coefficients.exponent_vectors
    calls = [0]

    def counted(*args):
        calls[-1] += 1
        return original(*args)

    modules = dglift_modules()
    bound = [module for module in modules if vars(module).get("exponent_vectors") is original]
    assert len(bound) >= 2  # coefficients and free_dga look it up by name
    for module in bound:
        monkeypatch.setattr(module, "exponent_vectors", counted)
    # a first call on another problem builds what is built once per process
    assert main(["check-lift", str(GOLDEN / "liftable.dgp"), "--witness"]) == 0
    capsys.readouterr()
    for path in (GOLDEN / "combined.dgp", CORPUS / "koszul-fp" / "k05.dgp"):
        calls.clear()
        sizes, outputs = [reachable_items(modules)], []
        for _ in range(3):
            calls.append(0)
            assert main(["check-lift", str(path), "--witness"]) == 0
            outputs.append(re.sub(r'"timing_ms": \d+', "", capsys.readouterr().out))
            sizes.append(reachable_items(modules))
        assert calls[0] > 0 and calls[0] == calls[1] == calls[2], (path.name, calls)
        assert sizes[0] == sizes[1] == sizes[2] == sizes[3], (path.name, sizes)
        assert outputs[0] == outputs[1] == outputs[2]
