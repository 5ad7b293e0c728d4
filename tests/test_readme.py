"""The README's Library example runs against the package's exports as they are."""
from __future__ import annotations

import pathlib
import re

import deltachannel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    code = _library_example()
    imported = re.search(r"from deltachannel import \((.*?)\)", code, re.DOTALL).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    # the example imports every export except selftest, which is documented beside it
    assert names == set(deltachannel.__all__) - {"selftest"}
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
