"""The README's library example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    bands = namespace["bands"]
    assert len(bands.qoi_names) == 120
    assert (bands.widths() > 0.0).all()
