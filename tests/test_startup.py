"""Start-up: importing the command line loads no module only one command uses.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``selfcheck`` pulls in ``randomgen`` and ``random``; none serves a verdict,
so ``import dglift.cli`` in a fresh interpreter must load none of them.
``selftest`` imports its kit on demand, which the last test runs through
the real entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NOT_AT_START_UP = ("dataclasses", "inspect", "dglift.selfcheck", "dglift.randomgen")


def test_importing_the_cli_skips_dataclasses_and_the_selftest_kit():
    code = ("import sys; sys.path.insert(0, %r); import dglift.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (str(SRC), NOT_AT_START_UP))
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_selftest_loads_its_kit_through_the_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "dglift", "selftest", "--trials", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert '"status": "pass"' in done.stdout
