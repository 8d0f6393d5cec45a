import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_usage_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library usage", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library usage' has no python block"
    return match.group(1)


def test_library_usage_example_runs(monkeypatch, capsys):
    # The example names fixture paths relative to the repository root.
    monkeypatch.chdir(ROOT)
    exec(compile(library_usage_block(), "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
