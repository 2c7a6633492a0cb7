"""Every refusal the command line can print has a row in `cli_cases.CASES`.

The literal start of each `ConfigError(...)` message in `cli.py` and each
`PlanError(...)` message in `stitch.py`, less the `cli: ` tag, must appear in
the expected stderr of an exit-3 row, so a new refusal cannot land untested.
The exempt ones are listed with the reason no row of their own asserts them.
"""

import ast
import itertools
from pathlib import Path

from cli_cases import CASES

SRC = Path(__file__).resolve().parents[1] / "src" / "mrbsde"
ERRORS = {"cli.py": "ConfigError", "stitch.py": "PlanError"}
# (file, function, literal prefix) -> why no row of its own asserts it
EXEMPT = {
    ("cli.py", "error", "cli: "):
        "wraps argparse's usage message; the usage-error rows assert it",
    ("cli.py", "_number", "cli: "):
        "wraps scenarios.config_number's message; the bad-value rows assert it",
    ("cli.py", "parse_config", "cli: "):
        "`cli: {name} must be >= 0` over six names; the negative-gate rows assert it",
    ("cli.py", "execute", "cli: "):
        "wraps constants_report's ValueError; the overflowing-constants rows assert it",
    ("stitch.py", "plan_intervals", "constants report lacks the applicable horizon"):
        "library-only: the constants a CLI run builds always hold its mode's horizon; "
        "test_stitch::test_plan_refuses_constants_without_the_horizon asserts it",
    ("stitch.py", "solve_global", "global stitching requires a resistance-free generator"):
        "library-only: plan_intervals refuses the same config first; "
        "test_stitch::test_solve_global_refuses_resistance asserts it",
    ("stitch.py", "solve_global", "plan breakpoints must ascend from 0 to n"):
        "library-only: the CLI passes plan_intervals's breakpoints; "
        "test_stitch::test_solve_global_rejects_bad_plan asserts it",
}


def _prefix(message: ast.expr) -> str:
    """The literal text before the first replacement field."""
    if isinstance(message, ast.Constant):
        return message.value
    head = itertools.takewhile(lambda part: isinstance(part, ast.Constant), message.values)
    return "".join(part.value for part in head)


def refusals() -> set[tuple[str, str, str]]:
    found = set()
    for name, error in ERRORS.items():
        for func in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == error):
                    found.add((name, func.name, _prefix(node.args[0])))
    return found


def test_every_refusal_has_a_cli_case():
    expected = [text for c in CASES if c.code == 3 for text in (c.starts, c.has) if text]
    missing = []
    for refusal in sorted(refusals() - EXEMPT.keys()):
        body = refusal[2].removeprefix("cli: ")
        if not body or not any(body in text for text in expected):
            missing.append(refusal)
    assert not missing, f"refusals without a tests/cli_cases.py row: {missing}"


def test_every_exemption_names_a_refusal():
    assert not EXEMPT.keys() - refusals()
