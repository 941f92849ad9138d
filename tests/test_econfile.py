import csv
import re

import numpy as np
import pytest
import yaml
from yaml.constructor import SafeConstructor
from hypothesis import given, settings
from hypothesis import strategies as st

import walraskit as wk
from walraskit.cli import _decomposition_grid, main
from walraskit.consumers import aed_rows
from walraskit.econfile import (
    EconomyFormatError,
    _dataset_header,
    _economy_yaml,
    _read_economy_yaml,
    economy_from_dict,
    economy_to_dict,
    write_equilibria_csv,
    write_experiment_csv,
    write_witness_csv,
)
from walraskit.genericity import TrialRecord
from support import edgeworth_asymmetric, observed_demand, random_interior_prices

# The loader load_economy falls back to: libyaml's when PyYAML has it.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def mixed_economy():
    return wk.Economy(
        (
            wk.Consumer([0.3, 0.7], [1.0, 0.5]),
            wk.Consumer(
                [0.5, 0.5], [0.0, 1.0], scale=wk.PolynomialScale(((1.0, (0,)), (0.5, (2,))))
            ),
            wk.Consumer(
                [0.25, 0.75], [1.0, 1.0], scale=wk.BumpScale((0.5,), 0.2, 1.0, 1.0)
            ),
        )
    )


class TestEconomyFiles:
    def test_round_trip_evaluates_identically(self, tmp_path, rng):
        e = mixed_economy()
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, e)
        e2 = wk.load_economy(path)
        P = random_interior_prices(rng, 50, 2)
        assert np.array_equal(aed_rows(e, P), aed_rows(e2, P))

    def test_round_trip_of_realized_economy(self, tmp_path, rng):
        econ = wk.build_continuum_economy((0.4, 0.6), grid=101)
        path = tmp_path / "cont.yaml"
        wk.save_economy(path, econ)
        econ2 = wk.load_economy(path)
        P = random_interior_prices(rng, 50, 2)
        assert np.array_equal(aed_rows(econ, P), aed_rows(econ2, P))

    def test_rewrite_is_byte_stable(self, tmp_path):
        e = mixed_economy()
        p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
        wk.save_economy(p1, e)
        wk.save_economy(p2, wk.load_economy(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ([1, 2, 3], "mapping"),
            ({"consumers": []}, "goods"),
            ({"goods": 2, "consumers": []}, "non-empty"),
            ({"goods": 2, "consumers": [{"alpha": [0.5]}]}, "consumer 0"),
            (
                {"goods": 2, "consumers": [{"alpha": [0.5, 0.5], "endowment": [1.0]}]},
                "length",
            ),
            (
                {
                    "goods": 2,
                    "consumers": [
                        {
                            "alpha": [0.5, 0.5],
                            "endowment": [1, 1],
                            "scale": {"type": "nope"},
                        }
                    ],
                },
                "scale",
            ),
            (
                {"goods": 2, "consumers": [{"alpha": [0.9, 0.3], "endowment": [1, 1]}]},
                "consumer 0",
            ),
        ],
    )
    def test_diagnostics_name_the_field(self, data, fragment):
        with pytest.raises(EconomyFormatError, match=fragment):
            economy_from_dict(data)

    @pytest.mark.parametrize(
        "scale, message",
        [
            ({"good": 5}, "kernel_sampled good must be an integer from 0 to 1, not 5"),
            ({"good": 0.5}, "kernel_sampled good must be an integer from 0 to 1, not 0.5"),
            ({"good": -1}, "kernel_sampled good must be an integer from 0 to 1, not -1"),
            ({"good": True}, "kernel_sampled good must be an integer from 0 to 1, not True"),
            ({"level": float("nan")}, "endowment level must be a positive finite number"),
            ({"level": float("inf")}, "endowment level must be a positive finite number"),
            ({"type": "polynomial", "terms": [[float("nan"), [0]]]}, "polynomial coefficients must be finite"),
            ({"type": "polynomial", "terms": [[float("inf"), [1]]]}, "polynomial coefficients must be finite"),
            (
                {"type": "polynomial", "terms": [[1.0, [1, 2]]]},
                "a polynomial term lists more powers than the chart has dimensions (1)",
            ),
            (
                {"type": "bump", "center": [0.5, 0.5], "radius": 0.2, "height": 1.0, "floor": 1.0},
                "bump center must have one coordinate per chart dimension (1)",
            ),
            (
                {"grid": [[0.1, 0.1], [0.5, 0.2], [0.2, 0.6]]},
                "kernel_sampled grid rows must have one coordinate per chart dimension (1)",
            ),
        ],
        ids=[
            "good-5", "good-0.5", "good--1", "good-true", "level-nan", "level-inf",
            "coefficient-nan", "coefficient-inf", "powers-1-2", "bump-center-2", "grid-2d",
        ],
    )
    def test_scales_must_fit_the_goods(self, scale, message):
        # Each of these once read past the price rows or gave a misleading
        # answer only when the scale was evaluated.
        base = {
            "type": "kernel_sampled",
            "grid": [[0.1], [0.5], [0.9]],
            "values": [1.0, 1.0, 1.0],
            "good": 0,
            "share": 0.5,
            "level": 1.0,
        }
        data = {
            "goods": 2,
            "consumers": [
                {"alpha": [0.3, 0.7], "endowment": [1.0, 0.5]},
                {"alpha": [0.5, 0.5], "endowment": [0.0, 1.0], "scale": {**base, **scale}},
            ],
        }
        if "type" in scale:
            data["consumers"][1]["scale"] = scale
        with pytest.raises(EconomyFormatError) as info:
            economy_from_dict(data)
        assert str(info.value) == f"consumer 1: invalid scale: {message}"

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([[0.5]], "a 1-d sampled grid needs at least 2 points"),
            ([[0.5], [0.1], [0.5]], "sampled grid points must be distinct"),
        ],
        ids=["one-node", "repeated-node"],
    )
    def test_a_short_or_repeated_grid_is_refused(self, grid, message):
        # A single node once ended in scipy's own message.
        scale = {"type": "sampled", "grid": grid, "values": [1.0] * len(grid)}
        data = {"goods": 2, "consumers": [{"alpha": [0.3, 0.7], "endowment": [1.0, 0.5], "scale": scale}]}
        with pytest.raises(EconomyFormatError) as info:
            economy_from_dict(data)
        assert str(info.value) == f"consumer 0: invalid scale: {message}"

    def test_polynomial_powers_may_be_fewer_than_the_chart_dimensions(self):
        # The default polynomial scale lists one power whatever the goods.
        data = {
            "goods": 3,
            "consumers": [
                {"alpha": [0.2, 0.3, 0.5], "endowment": [1.0, 1.0, 1.0], "scale": s.to_dict()}
                for s in (wk.PolynomialScale(), wk.PolynomialScale(((1.0, (1,)),)))
            ],
        }
        e = economy_from_dict(data)
        assert [c.scale.terms for c in e.consumers] == [((1.0, (0,)),), ((1.0, (1,)),)]

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "goods: 1\nconsumers:\n- alpha: [1.0]\n  endowment: [1.0]\n",
                "an economy needs at least two goods, not goods=1",
            ),
            (
                "goods: 2.7\nconsumers:\n- alpha: [0.5, 0.5]\n  endowment: [1.0, 1.0]\n"
                "- alpha: [0.3, 0.7]\n  endowment: [0.0, 1.0]\n",
                "top-level field 'goods' must be an integer",
            ),
            (  # YAML 1.1 reads 010 as octal
                "goods: 010\nconsumers:\n- alpha: [0.5, 0.5]\n  endowment: [1.0, 1.0]\n",
                "consumer 0: alpha/endowment length must equal goods=8",
            ),
            (  # and 1e5 as a string
                "goods: 1e5\nconsumers:\n- alpha: [0.5, 0.5]\n  endowment: [1.0, 1.0]\n",
                "top-level field 'goods' must be an integer",
            ),
        ],
        ids=["goods-1", "goods-2.7", "goods-010", "goods-1e5"],
    )
    def test_goods_is_an_integer_of_at_least_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "eco.yaml"
        path.write_text(text)
        assert main(["solve", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        with pytest.raises(ValueError, match="at least two goods"):
            wk.Economy((wk.Consumer([1.0], [1.0]),))

    def test_a_scale_without_a_value_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "eco.yaml"
        path.write_text(
            "goods: 2\nconsumers:\n- alpha: [0.5, 0.5]\n  endowment: [1.0, 0.0]\n  scale:\n"
        )
        assert main(["solve", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "consumer 0: invalid scale: a scale must be a mapping, not NoneType" in err

    def test_dict_form_is_plain_data(self):
        d = economy_to_dict(mixed_economy())
        assert d["goods"] == 2
        assert {c["scale"]["type"] for c in d["consumers"]} == {
            "constant",
            "polynomial",
            "bump",
        }


def every_scale_economy():
    """A three-good economy with a consumer of every scale kind."""
    grid = np.array([[0.2, 0.3], [0.5, 0.2], [0.3, 0.3], [0.1, 0.6]])
    return wk.Economy(
        (
            wk.Consumer([0.2, 0.3, 0.5], [1.0, 0.5, 0.0]),
            wk.Consumer(
                [0.5, 0.25, 0.25],
                [0.0, 1.0, 2.0],
                scale=wk.PolynomialScale(((2.0, (0, 0)), (-0.5, (2, 1)), (-1e-30, (0, 3)))),
            ),
            wk.Consumer(
                [0.25, 0.25, 0.5], [1, 1, 1], scale=wk.BumpScale((0.3, 0.3), 0.2, -0.5, 1.0)
            ),
            wk.Consumer([0.3, 0.3, 0.4], [2.0, 0.0, 1.0], scale=wk.ConstantScale(1e16)),
            wk.Consumer(
                [0.1, 0.1, 0.8],
                [1.0, 1.0, 1.0],
                scale=wk.KernelSampledScale(grid, [1.0, 2.0, 0.5, 1e22], 2, 0.8, 1.0),
            ),
            wk.Consumer(
                [0.4, 0.4, 0.2], [1.0, 2.0, 0.5], scale=wk.SampledScale(grid, [0.5, 1.0, 2.0, 4.0])
            ),
        )
    )


def safe_dump_text(e):
    """What PyYAML's pure-Python safe dumper writes for an economy."""
    return yaml.dump(
        economy_to_dict(e), Dumper=yaml.SafeDumper, sort_keys=False, default_flow_style=None
    )


class TestEconomyWriter:
    """save_economy writes PyYAML's safe_dump text without PyYAML's emitter."""

    def assert_writes_safe_dump_text(self, tmp_path, e):
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, e)
        text = path.read_text()
        assert text == safe_dump_text(e)
        assert same_data(_read_economy_yaml(text), yaml.load(text, Loader=yaml.SafeLoader))
        return text

    def test_every_scale_type(self, tmp_path):
        sampled = wk.SampledScale(np.linspace(0.1, 0.9, 30)[:, None], np.linspace(1.0, 2.0, 30))
        text = self.assert_writes_safe_dump_text(tmp_path, every_scale_economy())
        assert "- [2, 1]" in text and "- -1.0e-30" in text
        two = wk.Economy((wk.Consumer([0.5, 0.5], [1.0, 1.0], scale=sampled),))
        text = self.assert_writes_safe_dump_text(tmp_path, two)
        assert "values: [1.0," in text and ",\n      1." in text  # the values wrap

    @pytest.mark.parametrize("goods", [2, 3, 4, 5, 6, 7])
    def test_realized_economies(self, goods, tmp_path, rng):
        # From l = 6 on, a grid row is longer than a line and wraps.
        base = wk.Economy(
            tuple(
                wk.Consumer(rng.dirichlet(np.ones(goods)), rng.uniform(0.5, 2.0, goods))
                for _ in range(3)
            )
        )
        grid = rng.dirichlet(np.ones(goods), size=max(3 * goods, 12))
        econ = wk.realize_economy(
            wk.CanonicalFamily.symmetric(goods), wk.economy_field(base), grid
        )
        text = self.assert_writes_safe_dump_text(tmp_path, econ)
        rows = [line for line in text.splitlines() if line.startswith("    - [")]
        assert len(rows) == goods * len(grid)
        assert any(not row.endswith("]") for row in rows) == (goods >= 6)

    def test_a_three_good_realize_at_the_cli_defaults(self, tmp_path):
        # realize --input at --grid 201, the benchmark's shape: the three
        # scales share one grid, and --seed 49 puts a 2.85e-05 in a row.
        target = wk.Economy((wk.Consumer([0.2, 0.3, 0.5], [1, 2, 1]), wk.Consumer([0.5, 0.3, 0.2], [1, 0, 1])))
        grid = _decomposition_grid(3, 201, 49)
        econ = wk.realize_economy(wk.CanonicalFamily.symmetric(3), wk.economy_field(target), grid)
        text = self.assert_writes_safe_dump_text(tmp_path, econ)
        grids = [c["scale"]["grid"] for c in economy_to_dict(econ)["consumers"]]
        assert len(grids) == 3 and len(grids[0]) == 201 and grids[0] == grids[1] == grids[2]
        assert "e-05, " in text

    def test_float_spellings(self, tmp_path):
        values = [1e16, 1e22, 1e-300, 5e-324, 0.1, 1.0, 123456.789, 1e-05, 2.5e-08]
        grid = np.linspace(0.1, 0.9, len(values))[:, None]
        e = wk.Economy(
            (
                wk.Consumer([0.5, 0.5], [1.0, -0.0], scale=wk.SampledScale(grid, values)),
                wk.Consumer([0.5, 0.5], [0.0, 1.0]),
            )
        )
        text = self.assert_writes_safe_dump_text(tmp_path, e)
        for spelling in ("1.0e+16", "1.0e+22", "1.0e-300", "5.0e-324", "1.0e-05", "-0.0"):
            assert spelling in text
        e2 = wk.load_economy(tmp_path / "eco.yaml")
        assert np.array_equal(e2.consumers[0].scale.values, values)
        assert str(e2.consumers[0].endowment[1]) == "-0.0"
        # Grids equal by == but not bit for bit: each is written as its own text.
        zero, signed = ([[0.0], [0.5], [0.9]], [[-0.0], [0.5], [0.9]])
        e = wk.Economy(
            tuple(
                wk.Consumer([0.5, 0.5], [1.0, 1.0], scale=wk.SampledScale(grid, [1.0, 2.0, 1.5]))
                for grid in (zero, signed, zero)
            )
        )
        text = self.assert_writes_safe_dump_text(tmp_path, e)
        assert text.count("- [0.0]") == 2 and text.count("- [-0.0]") == 1

    def test_non_finite_and_unknown_values(self):
        inf, nan = float("inf"), float("nan")

        def rows(zero=0.0):  # new lists each time: PyYAML writes a shared list as an alias
            return [[inf, 1e16], [nan, 1e-05], [-inf, zero], [1e16, -1e-05]]

        for data in (
            {"goods": 2, "x": [inf, -inf, nan, -3], "y": [-1e300]},
            # Float rows, and the same rows but one zero's sign, under keys and in a sequence.
            {"grid": rows(), "again": rows(), "signed": rows(-0.0)},
            {"grid": rows(), "x": [rows(), [[-0.0, 1e-05]], [[0.0, 1e-05]], rows(-0.0)]},
        ):
            text = _economy_yaml(data)
            assert text == yaml.safe_dump(data, sort_keys=False, default_flow_style=None)
            assert same_data(_read_economy_yaml(text), yaml.load(text, Loader=yaml.SafeLoader))
        for bad in ("two words", "yes", True, None, (1, 2), np.float64(1.0), [1.0, np.float64(2.0)]):
            with pytest.raises(TypeError, match="plain YAML scalar"):
                _economy_yaml({"goods": 2, "x": bad})

    def test_flow_lists_break_at_the_width(self):
        # Lists ending at every column around the width, under each indent.
        for shift in range(8):
            for n in range(16, 24):
                row = [1.5] * n + [0.25]  # copied below: PyYAML writes a shared list as an alias
                data = {"k" * (shift + 1): row, "m": [{"a": row[:], "b": [row[:]]}]}
                text = _economy_yaml(data)
                assert text == yaml.safe_dump(data, sort_keys=False, default_flow_style=None)

    def test_round_trip_through_load_economy(self, tmp_path, rng):
        target = wk.Economy(
            (wk.Consumer([0.2, 0.3, 0.5], [1, 1, 1]), wk.Consumer([0.5, 0.3, 0.2], [1, 0.5, 1]))
        )
        econ = wk.realize_economy(
            wk.CanonicalFamily.symmetric(3),
            wk.economy_field(target),
            rng.dirichlet(np.ones(3), size=40),
        )
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, econ)
        again = wk.load_economy(path)
        assert economy_to_dict(again) == economy_to_dict(econ)
        P = random_interior_prices(rng, 50, 3)
        assert np.array_equal(aed_rows(econ, P), aed_rows(again, P))


class TestInCodeEconomies:
    """An economy built in code is checked like an economy file, and every
    scale writes its fields as the plain data the emitter takes."""

    KERNEL = {"grid": [[0.1], [0.5], [0.9]], "values": [1.0, 1.0, 1.0], "share": 0.5, "level": 1.0}

    @pytest.mark.parametrize(
        "goods, scale",
        [
            (2, wk.KernelSampledScale(**KERNEL, good=7)),
            (2, wk.KernelSampledScale(**KERNEL, good=0.5)),
            (2, wk.KernelSampledScale(**KERNEL, good=True)),
            (4, wk.BumpScale((0.5, 0.5), 0.2)),
            (2, wk.PolynomialScale(((1.0, (1, 2)),))),
            (2, wk.SampledScale([[0.1, 0.1], [0.5, 0.2], [0.2, 0.6]], [1.0, 1.0, 1.0])),
        ],
        ids=["good-7", "good-0.5", "good-true", "bump-center-2", "powers-1-2", "sampled-grid-2d"],
    )
    def test_a_scale_that_does_not_fit_the_goods_is_refused(self, goods, scale):
        # good=7 once ended a solve in an IndexError, and a 2-d bump centre
        # in a 4-good economy in a numpy broadcast error.
        alpha, endowment = np.full(goods, 1.0 / goods), np.ones(goods)
        with pytest.raises(ValueError, match="^invalid scale: ") as in_code:
            wk.Consumer(alpha, endowment, scale=scale)
        data = {
            "goods": goods,
            "consumers": [
                {"alpha": alpha.tolist(), "endowment": endowment.tolist(), "scale": scale.to_dict()}
            ],
        }
        with pytest.raises(EconomyFormatError) as from_file:
            economy_from_dict(data)
        assert str(from_file.value) == f"consumer 0: {in_code.value}"

    def test_every_scale_kind_round_trips_through_a_file(self, tmp_path, rng):
        econ = every_scale_economy()
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, econ)
        again = wk.load_economy(path)
        assert [type(c.scale) for c in again.consumers] == [type(c.scale) for c in econ.consumers]
        assert economy_to_dict(again) == economy_to_dict(econ)
        P = random_interior_prices(rng, 50, 3)
        assert np.array_equal(aed_rows(econ, P), aed_rows(again, P))

    def test_numpy_and_integer_fields_are_written_as_plain_floats(self):
        grid = np.array([[0.1], [0.5], [0.9]], dtype=np.float32)
        scales = [
            wk.ConstantScale(np.float32(2.5)),
            wk.ConstantScale(2),
            wk.PolynomialScale(((np.float64(1.5), (np.int64(1),)), (3, (0,)))),
            wk.BumpScale((np.float32(0.5),), np.float64(0.25), 2, np.int64(1)),
            wk.SampledScale(grid, np.array([1, 2, 3])),
            wk.KernelSampledScale(grid, [1, 2, 3], np.int64(1), np.float64(0.5), 2),
        ]
        for scale in scales:
            data = scale.to_dict()
            assert type(data.pop("type")) is str
            assert type(data.pop("good", 0)) is int
            terms = data.pop("terms", [])
            assert all(type(c) is float and leaf_types(p) == {int} for c, p in terms)
            assert leaf_types(data) <= {float}, scale
            econ = wk.Economy((wk.Consumer([0.5, 0.5], [1.0, 1.0], scale=scale),))
            text = _economy_yaml(economy_to_dict(econ))
            assert text == yaml.safe_dump(
                economy_to_dict(econ), sort_keys=False, default_flow_style=None
            )
        # The emitter refuses what the scales no longer hand it.
        with pytest.raises(TypeError, match="cannot write a float64"):
            _economy_yaml({"scale": {"type": "constant", "value": np.float64(2.5)}})


def leaf_types(data) -> set:
    """The types of the scalars in nested lists and mappings."""
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        return set().union(*map(leaf_types, data))
    return {type(data)}


def same_data(a, b) -> bool:
    """Equal plain data, NaN compared by position and -0.0, 1 and 1.0 told apart."""
    return repr(a) == repr(b)


def outcome(load, path):
    """The economy dict a loader gives for ``path``, or its error text."""
    try:
        return economy_to_dict(load(path))
    except EconomyFormatError as exc:
        return str(exc)


def load_with_yaml(path):
    """``load_economy`` with ``yaml.load`` as the only reader."""
    try:
        data = yaml.load(path.read_text(), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise EconomyFormatError(f"{path}: not valid YAML: {exc}") from exc
    return economy_from_dict(data)


# The spellings of test_float_spellings, and every other float.
FLOATS = st.one_of(
    st.sampled_from([1e16, 1e22, 1e-300, 5e-324, 0.1, 1.0, 123456.789, 1e-05, 2.5e-08, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SCALE_KINDS = ["constant", "polynomial", "bump", "sampled", "kernel_sampled"]
WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda w: w.lower() not in {"yes", "no", "true", "false", "on", "off", "null"}
)
READER_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def economy_dicts(draw):
    """``economy_to_dict``'s shape at l = 2-6, every scale kind, any floats."""
    goods = draw(st.integers(2, 6))
    dim = goods - 1

    def floats(n):
        return draw(st.lists(FLOATS, min_size=n, max_size=n))

    def scale(kind):
        if kind == "constant":
            return {"type": kind, "value": draw(FLOATS)}
        if kind == "polynomial":
            powers = st.lists(st.integers(0, 12), min_size=1, max_size=dim)
            terms = draw(st.lists(st.tuples(FLOATS, powers), min_size=1, max_size=4))
            return {"type": kind, "terms": [[c, p] for c, p in terms]}
        if kind == "bump":
            fields = ["type", "center", "radius", "height", "floor"]
            return dict(zip(fields, [kind, floats(dim), *floats(3)]))
        rows = draw(st.integers(1, 6))
        out = {"type": kind, "grid": [floats(dim) for _ in range(rows)], "values": floats(rows)}
        if kind == "kernel_sampled":
            out.update(good=draw(st.integers(0, dim)), share=draw(FLOATS), level=draw(FLOATS))
        return out

    kinds = draw(st.lists(st.sampled_from(SCALE_KINDS), min_size=1, max_size=5))
    consumers = [
        {"alpha": floats(goods), "endowment": floats(goods), "scale": scale(k)} for k in kinds
    ]
    return {"goods": goods, "consumers": consumers}


# Nested plain data with inf and nan, empty collections and block
# sequences of block sequences.
PLAIN_DATA = st.dictionaries(
    WORDS,
    st.recursive(
        st.one_of(st.floats(), st.integers(), WORDS),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(WORDS, inner, max_size=4),
        max_leaves=20,
    ),
    min_size=1,
    max_size=4,
)


class TestEconomyReader:
    """load_economy reads the emitter's layout itself and gives every other
    text to yaml.load; either way it returns what yaml.load returns."""

    @READER_SETTINGS
    @given(st.one_of(economy_dicts(), PLAIN_DATA))
    def test_emitted_text_reads_as_yaml_reads_it(self, data):
        text = _economy_yaml(data)
        assert same_data(_read_economy_yaml(text), yaml.load(text, Loader=yaml.SafeLoader))

    def test_float_words_have_the_bits_of_pyyaml_values(self):
        # PyYAML's .nan is the NaN of an invalid operation: on x86 its sign
        # bit is set, and float("nan")'s is not.
        words = {
            ".inf": SafeConstructor.inf_value,
            "-.inf": -SafeConstructor.inf_value,
            ".nan": SafeConstructor.nan_value,
        }
        for word, value in words.items():
            got = _read_economy_yaml(f"x: {word}\ny: [{word}, 1.0]\n")
            bits = np.array([got["x"], got["y"][0], value]).view(np.uint64)
            assert bits[0] == bits[1] == bits[2], word

    def test_emitted_files_are_read_without_yaml(self, tmp_path, monkeypatch):
        econ = wk.build_continuum_economy((0.4, 0.6), grid=41)
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, econ)

        def refuse(*args, **kwargs):
            raise AssertionError("yaml.load called on an emitted file")

        monkeypatch.setattr(yaml, "load", refuse)
        assert economy_to_dict(wk.load_economy(path)) == economy_to_dict(econ)

    def test_every_line_prefix_loads_as_yaml_loads_it(self, tmp_path, rng):
        target = wk.Economy(
            (wk.Consumer([0.2, 0.3, 0.5], [1, 1, 1]), wk.Consumer([0.5, 0.3, 0.2], [1, 0.5, 1]))
        )
        econ = wk.realize_economy(
            wk.CanonicalFamily.symmetric(3), wk.economy_field(target), rng.dirichlet(np.ones(3), 12)
        )
        lines = _economy_yaml(economy_to_dict(econ)).splitlines(keepends=True)
        assert any(line.endswith(",\n") for line in lines)  # wrapped flow lists
        path = tmp_path / "eco.yaml"
        for k in range(len(lines) + 1):
            path.write_text("".join(lines[:k]))
            assert outcome(wk.load_economy, path) == outcome(load_with_yaml, path), k

    KERNEL_ECONOMY = (
        "goods: 2\nconsumers:\n- alpha: [0.5, 0.5]\n  endowment: [1.0, 0.0]\n  scale:\n"
        "    type: kernel_sampled\n    grid:\n    - [0.1]\n    - [0.5]\n    - [0.9]\n"
        "    values: [1.0, 1.0, 1.0]\n    good: 1\n    share: 0.5\n    level: 1.0\n"
        "- alpha: [0.3, 0.7]\n  endowment: [0.0, 1.0]\n"
    )

    @pytest.mark.parametrize(
        "old, new",
        # kernel_sampled's good is checked as an integer and named in the
        # error, so each spelling's YAML 1.1 value shows in the outcome.
        [("good: 1", f"good: {s}") for s in (
            "1e5", "010", "0x1F", "1_000", "+1.5", ".5", "1:20", "~", "yes", "'0.5'",
        )]
        + [
            ("goods: 2\n", "# a comment\ngoods: 2 # two\n"),
            ("goods: 2\n", "---\ngoods: 2\n"),
            ("\n", "\r\n"),
            ("goods: 2", "goods:\t2"),
            ("\n", "  \n"),
            ("good: 1", "good: 5\n    good: 1"),
            ("[0.5, 0.5]\n  endowment: [1.0, 0.0]", "&a [0.5, 0.5]\n  endowment: *a"),
            ("level: 1.0", "level: !!float 1"),
            (KERNEL_ECONOMY, ""),
            ("good: 1", "good: 1\n    yes: 1"),
            (
                "    - [0.1]\n    - [0.5]\n    - [0.9]",
                "      - [0.1]\n      - [0.5]\n      - [0.9]",
            ),
            ("    - [0.9]\n", "    - [0.9]\n      - [0.7]\n"),
            ("good: 1", "good: 1\n    deep:\n    " + "- " * 1200 + "1"),
        ],
        ids=[
            "1e5", "010", "0x1F", "1_000", "+1.5", ".5", "1:20", "tilde", "yes", "quoted",
            "comment", "document-start", "crlf", "tab", "trailing-spaces", "duplicate-key",
            "anchor-and-alias", "float-tag", "empty", "yes-key", "indented-sequence",
            "over-indented-item", "deep-nesting",
        ],
    )
    def test_hand_written_spellings_read_as_yaml_reads_them(self, tmp_path, old, new):
        assert old in self.KERNEL_ECONOMY
        text = self.KERNEL_ECONOMY.replace(old, new)
        try:
            data = _read_economy_yaml(text)
        except (ValueError, RecursionError):
            pass  # outside the emitter's layout: load_economy hands it to yaml.load
        else:
            assert same_data(data, yaml.load(text, Loader=yaml.SafeLoader))
        path = tmp_path / "eco.yaml"
        path.write_text(text, newline="")
        assert outcome(wk.load_economy, path) == outcome(load_with_yaml, path)

    @pytest.mark.parametrize(
        "row", ["[.5]", "[1e5]", "[0.5, 0.25]", "[0.5", "[0.5] ", "[0.5]]", " [0.5]", "- [0.5]", "[]"]
    )
    def test_a_bad_row_in_a_grid_reads_as_yaml_reads_it(self, tmp_path, row):
        # A run of one-line float rows is read at once; a row in the middle
        # of a 201-row grid that breaks the run, or joins it with another
        # length, reads as each line read on its own did.
        econ = wk.build_continuum_economy((0.4, 0.6), grid=201)
        lines = _economy_yaml(economy_to_dict(econ)).split("\n")
        rows = [k for k, line in enumerate(lines) if line.startswith("    - [")]
        assert len(rows) == 402
        lines[rows[100]] = "    - " + row
        text = "\n".join(lines)
        try:
            data = _read_economy_yaml(text)
        except ValueError:
            pass  # outside the emitter's layout: load_economy hands it to yaml.load
        else:
            assert same_data(data, yaml.load(text, Loader=yaml.SafeLoader))
        path = tmp_path / "eco.yaml"
        path.write_text(text)
        assert outcome(wk.load_economy, path) == outcome(load_with_yaml, path)

    def test_a_file_without_its_final_line_break_is_read_by_yaml(self, tmp_path, monkeypatch):
        text = self.KERNEL_ECONOMY.rstrip("\n")
        with pytest.raises(ValueError, match="^the text does not end with a line break$"):
            _read_economy_yaml(text)
        path = tmp_path / "eco.yaml"
        path.write_text(text, newline="")
        calls = []
        load = yaml.load

        def spy(*args, **kwargs):
            calls.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr(yaml, "load", spy)
        econ = wk.load_economy(path)
        assert calls == [text]
        assert economy_to_dict(econ) == economy_to_dict(economy_from_dict(_read_economy_yaml(self.KERNEL_ECONOMY)))


def load_dataset_by_csv(path):
    """The dataset reader before np.loadtxt: csv.reader rows, then ``float``
    of every field."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    first = next((k for k, row in enumerate(rows) if row), None)
    if first is None:
        raise EconomyFormatError(f"{path}: empty dataset file")
    header = [name.strip() for name in rows[first]]
    goods = len(header) // 2
    if header != _dataset_header(goods):
        raise EconomyFormatError(f"{path}: expected header p1..pl,x1..xl")
    values = []
    for lineno, row in enumerate(rows[first + 1 :], start=first + 2):
        if not row:
            continue
        if len(row) != 2 * goods:
            raise EconomyFormatError(f"{path}:{lineno}: expected {2 * goods} fields")
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise EconomyFormatError(f"{path}:{lineno}: non-numeric field") from exc
    if not values:
        raise EconomyFormatError(f"{path}: dataset has a header but no rows")
    values = np.array(values)
    return wk.ObservationDataset(values[:, :goods], values[:, goods:])


def dataset_outcome(load, path):
    """The bits ``load`` reads from ``path``, or where and why it refuses it:
    the line a format error names (its message if it names none), or the
    text of the dataset's own ValueError."""
    try:
        ds = load(path)
    except EconomyFormatError as exc:
        line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        return ("line", int(line[1])) if line else ("file", str(exc))
    except ValueError as exc:
        return ("dataset", str(exc))
    return ("bits", ds.prices.view(np.int64).tolist(), ds.bundles.view(np.int64).tolist())


DATASET_NUMBERS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.integers(1, 10**6).map(str),
    st.just("1e-3"),
)
# What a field may hold besides a number: refused by the dataset (0 as a
# price, nan, inf) or by the reader (a word, nothing).
DATASET_ODDITIES = st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "oops", ""])
DATASET_SPELLINGS = st.sampled_from(["{}", " {}", "{} ", '"{}"', '" {} "', '"{}" '])


@st.composite
def dataset_texts(draw):
    """A dataset file with one to three goods, its fields spaced or quoted,
    some rows too short or too long, blank lines and any line ending."""
    goods = draw(st.integers(1, 3))
    width = 2 * goods
    field = st.tuples(
        st.integers(0, 11).flatmap(lambda k: DATASET_ODDITIES if k == 0 else DATASET_NUMBERS),
        DATASET_SPELLINGS,
    ).map(lambda pair: pair[1].format(pair[0]))
    blanks = st.sampled_from([0, 0, 0, 1, 2])
    lines = [""] * draw(blanks) + [",".join(_dataset_header(goods))]
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([width] * 8 + [width - 1, width + 1]))
        lines += [""] * draw(blanks) + [",".join(draw(st.lists(field, min_size=n, max_size=n)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestDatasetFiles:
    def test_round_trip(self, tmp_path, rng):
        c = wk.Consumer([0.4, 0.6], [1, 1])
        prices = [wk.simplex_point(rng.dirichlet([2, 2])) for _ in range(12)]
        ds = observed_demand(c, prices)
        path = tmp_path / "obs.csv"
        wk.save_dataset(path, ds)
        ds2 = wk.load_dataset(path)
        assert np.array_equal(ds.prices, ds2.prices)
        assert np.array_equal(ds.bundles, ds2.bundles)
        # Bit for bit at the extremes of float64, the smallest subnormal and -0.0 included.
        P = rng.dirichlet(np.ones(3), size=2000)
        X = rng.uniform(0.0, 2.0, size=(2000, 3)) * 10.0 ** rng.integers(-300, 300, size=(2000, 3))
        X.flat[:8] = [5e-324, 1e-300, 1e300, -0.0, 0.0, 1.7976931348623157e308, 2.2250738585072014e-308, 1.0]
        wk.save_dataset(path, wk.ObservationDataset(P, X))
        again = wk.load_dataset(path)
        assert np.array_equal(again.prices.view(np.int64), P.view(np.int64))
        assert np.array_equal(again.bundles.view(np.int64), X.view(np.int64))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dataset_texts())
    def test_reads_as_csv_reader_and_float_read(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("dataset") / "obs.csv"
        path.write_bytes(text.encode())
        assert dataset_outcome(wk.load_dataset, path) == dataset_outcome(load_dataset_by_csv, path)

    @pytest.mark.parametrize(
        "lines, line, by_csv",
        [
            # float() reads digit underscores; np.loadtxt does not.
            (["1,2,3,4", "1_000,2,3,4"], 3, "bits"),
            # csv.reader runs an open quote on into the next line, and here
            # reads one row from the two lines.
            (["1,2,3,4", '1,2,3,"4', '"'], 3, "bits"),
            (['1,"2', "3,4", "5,6,7,8"], 2, "line"),
        ],
        ids=["underscore", "open-quote-closed-below", "open-quote"],
    )
    def test_lines_csv_reader_read_otherwise_are_named(self, tmp_path, lines, line, by_csv):
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(["p1,p2,x1,x2", *lines]) + "\n")
        assert dataset_outcome(load_dataset_by_csv, path)[0] == by_csv
        assert dataset_outcome(wk.load_dataset, path) == ("line", line)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        # The last is p1,p2,x1,x2 interleaved: read as written, it passes SARP on the wrong data.
        for text in ("a,b,c\n1,2,3\n", "p1,x1,p2,x2\n0.5,1,0.5,1\n0.4,1,0.6,2\n"):
            path.write_text(text)
            with pytest.raises(EconomyFormatError, match="expected header p1..pl,x1..xl"):
                wk.load_dataset(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p1,p2,x1,x2\n1,2,3\n")
        with pytest.raises(EconomyFormatError, match="expected 4 fields"):
            wk.load_dataset(path)

    def test_line_number_in_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p1,p2,x1,x2\n1,1,1,1\n1,oops,1,1\n")
        with pytest.raises(EconomyFormatError, match=":3"):
            wk.load_dataset(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["1,1,1", "1,1,1,1", "1,oops,1,1"], ":2: expected 4 fields"),
            (["1,1,1,1", "1,oops,1,1", "1,1,1"], ":3: non-numeric field"),
            (["1,1,1,1", "", "1,1", "1,1,x,1"], ":4: expected 4 fields"),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, lines, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["p1,p2,x1,x2", *lines]) + "\n")
        with pytest.raises(EconomyFormatError, match=message):
            wk.load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        # Before the header too, whose names may carry spaces.
        for text in ("p1,p2,x1,x2\n\n1,2,3,4\n\n\n0.5, 1e-3,0,7\n", "\n\np1, p2 ,x1,x2\n1,2,3,4\n0.5, 1e-3,0,7\n"):
            path.write_text(text)
            ds = wk.load_dataset(path)
            assert ds.prices.tolist() == [[1.0, 2.0], [0.5, 1e-3]]
            assert ds.bundles.tolist() == [[3.0, 4.0], [0.0, 7.0]]
        path.write_text("\n\n\n")
        with pytest.raises(EconomyFormatError, match="empty dataset file"):
            wk.load_dataset(path)
        # A bad line is named by its line in the file, blank lines counted.
        path.write_text("\n\np1,p2,x1,x2\n1,2,3,4\n1,oops,1,1\n")
        with pytest.raises(EconomyFormatError, match=":5: non-numeric field"):
            wk.load_dataset(path)


class TestResultTables:
    def test_equilibria_csv(self, tmp_path):
        report = wk.find_equilibria(edgeworth_asymmetric())
        path = tmp_path / "eq.csv"
        write_equilibria_csv(path, report, goods=2)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p1,p2,residual,regularity,index,multiplicity"
        assert lines[1].startswith("0.4")
        assert ",regular,1,1" in lines[1]

    def test_witness_csv(self, tmp_path, symmetric_family, rng):
        witnesses = []
        for _ in range(5):
            p = wk.simplex_point(rng.dirichlet([2, 2]))
            v = wk.tangent_project(p, rng.standard_normal(2))
            witnesses.append(wk.decompose_at(symmetric_family, v))
        path = tmp_path / "w.csv"
        prices = np.array([w.price.simplex_coords() for w in witnesses])
        mu = np.array([w.mu for w in witnesses])
        write_witness_csv(path, prices, mu, np.array([w.residual for w in witnesses]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p1,p2,mu1,mu2,residual"
        assert len(lines) == 6

    def test_experiment_csv_records_failed_trials(self, tmp_path):
        records = (
            TrialRecord(0, 7, 1e-3, 1, True, 1, True),
            TrialRecord(1, 8, 1e-3, 0, False, 0, False, error="ValueError: a, b"),
        )
        path = tmp_path / "exp.csv"
        write_experiment_csv(path, wk.GenericityResult(records))
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][-3:] == ["finite", "error", "index_check"]
        assert rows[1] == ["0", "7", "0.001", "1", "true", "1", "true", "", "ok"]
        assert rows[2] == ["1", "8", "0.001", "0", "false", "0", "false", "ValueError: a, b", "n/a"]
