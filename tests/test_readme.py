"""The README's library example runs as written, so a signature change that
leaves it stale fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["breaks"] == [0, 4, 8]
    assert len(namespace["histories"]) == 2
