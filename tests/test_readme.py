"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys, monkeypatch):
    # The example reads configs/ by a path relative to the repository root.
    monkeypatch.chdir(README.parent)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert out.startswith("reachable-set bounding box at step 5:")
