"""Start-up: importing the command line loads no module no command uses.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``randomgen`` pulls in ``random``; none serves a verdict, so
``import dglift.cli`` in a fresh interpreter must load none of them.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_AT_START_UP = ("dataclasses", "inspect", "dglift.randomgen")


def test_importing_the_cli_skips_dataclasses_and_the_selftest_kit():
    code = ("import sys; sys.path.insert(0, %r); import dglift.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (str(SRC), NOT_AT_START_UP))
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []

