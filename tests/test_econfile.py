import csv

import numpy as np
import pytest
import yaml

import walraskit as wk
from walraskit.cli import main
from walraskit.consumers import aed_rows
from walraskit.econfile import (
    EconomyFormatError,
    _economy_yaml,
    economy_from_dict,
    economy_to_dict,
    write_equilibria_csv,
    write_experiment_csv,
    write_witness_csv,
)
from walraskit.genericity import TrialRecord
from support import edgeworth_asymmetric, observed_demand, random_interior_prices


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
            "powers-1-2", "bump-center-2", "grid-2d",
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
        ],
        ids=["goods-1", "goods-2.7"],
    )
    def test_goods_is_an_integer_of_at_least_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "eco.yaml"
        path.write_text(text)
        assert main(["solve", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        with pytest.raises(ValueError, match="at least two goods"):
            wk.Economy((wk.Consumer([1.0], [1.0]),))

    def test_dict_form_is_plain_data(self):
        d = economy_to_dict(mixed_economy())
        assert d["goods"] == 2
        assert {c["scale"]["type"] for c in d["consumers"]} == {
            "constant",
            "polynomial",
            "bump",
        }


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
        return text

    def test_every_scale_type(self, tmp_path):
        sampled = wk.SampledScale(np.linspace(0.1, 0.9, 30)[:, None], np.linspace(1.0, 2.0, 30))
        grid = np.array([[0.2, 0.3], [0.5, 0.2], [0.3, 0.3], [0.1, 0.6]])
        e = wk.Economy(
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
            )
        )
        text = self.assert_writes_safe_dump_text(tmp_path, e)
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

    def test_non_finite_and_unknown_values(self):
        data = {"goods": 2, "x": [float("inf"), -float("inf"), float("nan"), -3], "y": [-1e300]}
        assert _economy_yaml(data) == yaml.safe_dump(data, sort_keys=False, default_flow_style=None)
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

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(EconomyFormatError, match="header"):
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
        path.write_text("p1,p2,x1,x2\n\n1,2,3,4\n\n\n0.5, 1e-3,0,7\n")
        ds = wk.load_dataset(path)
        assert ds.prices.tolist() == [[1.0, 2.0], [0.5, 1e-3]]
        assert ds.bundles.tolist() == [[3.0, 4.0], [0.0, 7.0]]


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
        write_witness_csv(path, witnesses)
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
