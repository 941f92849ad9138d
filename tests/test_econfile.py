import csv

import numpy as np
import pytest

import walraskit as wk
from walraskit.cli import main
from walraskit.consumers import aed_rows
from walraskit.econfile import (
    EconomyFormatError,
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
