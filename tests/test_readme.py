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


def _significant(token: str) -> int:
    """The significant digits of a number as the README writes it."""
    return len(re.split(r"e", token)[0].replace(".", "").lstrip("0"))


def test_limitations_name_every_lattice_spacing():
    # The scan spacing at l = 2-6, the solve's one lattice, each written in
    # the limitation on close zeros to the digits it shows.
    from walraskit.equilibrium import _scan_grid, _spacing

    text = README.read_text()
    paragraph = text[text.index("* The scan grid is the solve's one lattice") :].split("\n* ")[0]
    written = re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", paragraph)
    for goods in range(2, 7):
        spacing = _spacing(_scan_grid(goods - 1)[1])
        assert any(float(f"{spacing:.{_significant(w)}g}") == float(w) for w in written), (goods, spacing)
