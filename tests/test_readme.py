"""The README's Python examples run and print what their comments promise."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    promised = re.findall(r"^print\(.*\)\s+# (.+)$", "".join(blocks), re.M)
    assert promised == ["True", "100 100"]
    assert capsys.readouterr().out.splitlines()[-2:] == promised
