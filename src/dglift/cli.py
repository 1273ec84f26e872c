"""Command dispatcher and report serialisation.

Commands operate on a problem file and emit a report:

    dglift validate   problem.dgp
    dglift delta      problem.dgp --element "X*Y*y"
    dglift obstruction problem.dgp [--module N]
    dglift check-lift problem.dgp [--module N] [--witness]
    dglift homology   problem.dgp --bidegree 3,4

JSON output follows the fixed schema

    {version, problem, results: [...], timing_ms}

where each check-lift result is {module, decision, method, obstruction:
[{basis, value}], witness?, certificate?}.  A report is the plain dict of
these four keys, in this order, which ``emit_report`` writes byte for byte
as ``json.dumps(doc, ensure_ascii=False, indent=2)`` does.  Output is
byte-identical between runs apart from timing_ms.  Exit codes: 0 success,
1 mathematical rejection (a construction check failed), 2 usage or parse
error, 3 internal error (a program bug, reported in one line without a
traceback).  The DGLIFT_VERBOSE environment variable adds progress notes on
stderr and changes nothing else.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .dsl import parse_algebra_element, parse_problem, print_problem
from .envelope import delta, diagonal_homology_dim
from .errors import DGLiftError, ParseError
from .obstruction import check_lift, obstruction_values


def emit_report(doc, fmt="json") -> str:
    if fmt == "json":
        out = []
        try:
            _write_json(doc, "\n", out)
        except TypeError:  # a value the direct writer does not know
            return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
        out.append("\n")
        return "".join(out)
    if fmt == "text":
        return _emit_text(doc)
    raise ValueError("unknown format %r" % fmt)


_json_text = json.encoder.encode_basestring  # ensure_ascii=False's text encoder
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value, newline, out):
    """Append the JSON text of ``value`` to ``out``, exactly as
    ``json.dumps(value, ensure_ascii=False, indent=2)`` writes it, for a
    value built of dicts with text keys, lists, texts, ints, booleans and
    None, the values of a report; ``newline`` is a line break and the
    indent of the value's line.  Any other value is a TypeError, on which
    ``emit_report`` writes the whole report with ``json.dumps``.  The
    pure-Python encoder that ``indent`` selects is several times slower."""
    if type(value) is str:
        out.append(_json_text(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif type(value) is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write_json(item, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in value.items():
            out.append(inner + _json_text(key) + ": ")
            _write_json(item, inner, out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError("%s is not a report value" % type(value).__name__)


def _emit_text(doc):
    lines = ["dglift %s" % doc["version"]]
    for entry in doc["results"]:
        if "module" in entry:
            head = "module %s:" % entry["module"]
            if "decision" in entry:
                head += " %s (method: %s)" % (entry["decision"], entry["method"])
            lines.append(head)
            lines.append("  obstruction:")
            for item in entry["obstruction"]:
                lines.append("    %s: %s" % (item["basis"], item["value"]))
            if "witness" in entry:
                lines.append("  witness:")
                for item in entry["witness"]:
                    lines.append("    %s: %s" % (item["basis"], item["value"]))
            if "certificate" in entry:
                cert = entry["certificate"]
                lines.append("  certificate (%s):" % cert["kind"])
                for key, value in cert.items():
                    if key in ("kind", "null_functional"):
                        continue
                    lines.append("    %s: %s" % (key, value))
                lines.append("    null functional:")
                for item in cert["null_functional"]:
                    lines.append("      %s: %s" % (item["row"], item["value"]))
        elif "delta" in entry:
            lines.append("delta(%s) = %s" % (entry["element"], entry["delta"]))
        elif "dimension" in entry:
            n, w = entry["bidegree"]
            lines.append("dim H_(%d,%d)(J) = %d" % (n, w, entry["dimension"]))
        elif "object" in entry:
            lines.append("%s %s: %s" % (entry["object"], entry["name"],
                                        entry["status"]))
    lines.append("(%d ms)" % doc["timing_ms"])
    return "\n".join(lines) + "\n"


def _tensor_entries(N, values):
    """The {basis, value} items of a family with a value at every label."""
    return [{"basis": lab, "value": str(values[lab])} for lab in N.labels]


def _module_names(problem, module):
    if module is not None:
        if module not in problem.modules:
            raise ParseError("no module named %r in the problem" % module)
        return [module]
    return list(problem.modules)


def run_command(command, problem, *, module=None, bidegree=None,
                witness=False, element=None):
    """Execute one command against a parsed problem; returns the report as
    the dict ``emit_report`` serialises."""
    start = time.monotonic()
    results = []
    if command == "validate":
        # construction already ran every check; reaching here means valid
        results.append({"object": "ring", "name": problem.ring_name,
                        "status": "valid"})
        results.append({"object": "algebra", "name": problem.algebra_name,
                        "status": "valid"})
        for name in problem.modules:
            results.append({"object": "module", "name": name, "status": "valid"})
    elif command == "delta":
        if element is None:
            raise ParseError("delta needs --element <expression>")
        value = parse_algebra_element(problem, element)
        results.append({"element": element, "delta": str(delta(value))})
    elif command == "obstruction":
        for name in _module_names(problem, module):
            N = problem.modules[name]
            values = obstruction_values(N)
            results.append({"module": name,
                            "obstruction": _tensor_entries(N, values)})
    elif command == "check-lift":
        for name in _module_names(problem, module):
            N = problem.modules[name]
            report = check_lift(N)
            entry = {"module": name, "decision": report.decision,
                     "method": report.method,
                     "obstruction": _tensor_entries(N, report.obstruction)}
            if witness and report.witness is not None:
                entry["witness"] = _tensor_entries(N, report.witness)
            if report.certificate is not None:
                entry["certificate"] = report.certificate
            results.append(entry)
    elif command == "homology":
        if bidegree is None:
            raise ParseError("homology needs --bidegree n,w")
        n, w = bidegree
        dim = diagonal_homology_dim(problem.algebra, n, w)
        results.append({"bidegree": [n, w], "dimension": dim})
    else:
        raise ParseError("unknown command %r" % command)
    elapsed = int((time.monotonic() - start) * 1000)
    return {"version": __version__, "problem": print_problem(problem),
            "results": results, "timing_ms": elapsed}


def _parse_bidegree(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("--bidegree expects n,w")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("--bidegree expects integers")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dglift",
        description="Exact naive-lifting obstructions for DG modules over "
                    "free graded extensions.")
    sub = parser.add_subparsers(dest="command")
    commands = {
        "validate": "run all construction checks on a problem file",
        "delta": "apply the universal derivation to an algebra element",
        "obstruction": "print the obstruction map on each basis element",
        "check-lift": "decide naive liftability with witness or certificate",
        "homology": "dimension of the diagonal ideal's homology at a bidegree",
    }
    for name, help_txt in commands.items():
        cmd = sub.add_parser(name, help=help_txt)
        cmd.add_argument("problem", help="problem description file")
        if name in ("obstruction", "check-lift"):
            cmd.add_argument("--module", help="restrict to one module")
        if name == "check-lift":
            cmd.add_argument("--witness", action="store_true",
                             help="include the lifting witness")
        if name == "homology":
            cmd.add_argument("--bidegree", required=True,
                             help="homological,internal degree pair n,w")
        if name == "delta":
            cmd.add_argument("--element", required=True,
                             help="algebra element expression")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_parser = None


def _get_parser():
    """The argument parser, built on first use and reused by later calls."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    return _parser


def main(argv=None):
    try:
        return _run(argv)
    except Exception as exc:  # a program bug, not a mathematical rejection
        message = str(exc).replace("\n", " ")
        print("dglift: internal error: %s: %s" % (type(exc).__name__, message),
              file=sys.stderr)
        return 3


def _run(argv):
    parser = _get_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    verbose = bool(os.environ.get("DGLIFT_VERBOSE"))
    if verbose:
        print("reading %s" % args.problem, file=sys.stderr)
    try:
        with open(args.problem, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print("dglift: %s" % exc, file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print("dglift: %s is not UTF-8 text: %s" % (args.problem, exc), file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
        if verbose:
            print("running %s" % args.command, file=sys.stderr)
        doc = run_command(
            args.command, problem,
            module=getattr(args, "module", None),
            bidegree=_parse_bidegree(args.bidegree)
            if getattr(args, "bidegree", None) else None,
            witness=getattr(args, "witness", False),
            element=getattr(args, "element", None))
    except ParseError as exc:
        print("dglift: %s" % exc, file=sys.stderr)
        return 2
    except DGLiftError as exc:  # a mathematical rejection
        print("dglift: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(emit_report(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
