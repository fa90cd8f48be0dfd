"""The README's library sketch runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(sketch, str(README), "exec"), {})
    assert "covers PEs" in capsys.readouterr().out
