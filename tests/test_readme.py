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
    # The finest spacing (--grid 50) and the scan spacing at l = 2-6, each
    # written in the limitation on close zeros to the digits it shows.
    from walraskit.equilibrium import SolverConfig, _scan_grid, _spacing, _subdivisions

    text = README.read_text()
    paragraph = text[text.index("* Two zeros within one lattice spacing") :].split("\n* ")[0]
    written = re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", paragraph)
    for goods in range(2, 7):
        per_dim = _scan_grid(goods - 1)[1]
        m = _subdivisions(per_dim, SolverConfig().grid_density)
        for spacing in (_spacing((per_dim - 1) * m + 1), _spacing(per_dim)):
            assert any(float(f"{spacing:.{_significant(w)}g}") == float(w) for w in written), (goods, spacing)
