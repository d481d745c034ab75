"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = Path(__file__).resolve().parent / "data"


def test_readme_example_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    printed = []
    monkeypatch.chdir(DATA)  # the example opens pets.inst
    exec(blocks[0], {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    m1_text, transcript = printed
    assert "name Odie" in m1_text and "age 4" in m1_text
    assert transcript.count("- command:") == 1
