"""Every row of cli_cases.CASES through the installed `mrbsde` console script:
the exit code, and stderr and stdout as the script prints them, so a warning
or a traceback on stderr fails the row."""

import shutil
import subprocess

import pytest

from cli_cases import make_tests

SCRIPT = shutil.which("mrbsde")
pytestmark = pytest.mark.skipif(SCRIPT is None, reason="no mrbsde console script on PATH")


def run_script(argv, capsys):
    done = subprocess.run([SCRIPT, *argv], capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


globals().update(make_tests(run_script))
