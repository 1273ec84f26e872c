"""Reports and the command-line surface.

Every command produces a report, a plain dict that serialises to a fixed
JSON schema (or a text rendering of the same content); two runs on the
same file are byte-identical apart from the timing field.  The same
dispatch is available programmatically through run_command.
"""

import json
from pathlib import Path

from dglift import parse_problem
from dglift.cli import emit_report, main, run_command

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

problem = parse_problem((GOLDEN / "combined.dgp").read_text(encoding="utf-8"))

doc = run_command("check-lift", problem, witness=True)
print("JSON report:")
text = emit_report(doc, "json")
print(text)
print("round-trips:", json.loads(text) == doc)

print("text rendering:")
print(emit_report(doc, "text"))

print("homology of the diagonal ideal at (3,4):")
print(emit_report(run_command("homology", problem, bidegree=(3, 4)), "text"))

print("the CLI entry point returns process exit codes:")
code = main(["validate", str(GOLDEN / "combined.dgp"), "--format", "text"])
print("exit code:", code)
