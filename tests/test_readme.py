import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_quick_start_runs(capsys):
    """The ``python`` block under "Library quick start" runs as written."""
    found = re.search(r"^Library quick start:\n\n```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert found, "README has no python block under 'Library quick start:'"
    exec(compile(found.group(1), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("10 ")
