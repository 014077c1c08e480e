import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catslab import cli, weierstrass as wz
from catslab.errors import ConvergenceError
from catslab.geometry import solve_lambda0


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, failing on the NaN/Infinity tokens that strict JSON lacks."""
    return json.loads(text, parse_constant=pytest.fail)


def _magnitude():
    return st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def _terms(powers):
    """Rows [p, re, im] of distinct powers with magnitudes from 1e-300 to 1e300."""
    signed = st.tuples(_magnitude(), st.sampled_from([1.0, -1.0, 0.0]))
    return st.dictionaries(powers, st.tuples(signed, signed), max_size=3).map(
        lambda d: [[p, s1 * m1, s2 * m2] for p, ((m1, s1), (m2, s2)) in d.items()]
    )


@st.composite
def annulus_documents(draw):
    """Weierstrass documents around the catenoid g = a z, h = b / z: extra terms
    of powers up to +-3000 and magnitudes 1e-300 to 1e300 on radii in
    [1e-3, 1e3]; small extras keep the data valid, large ones break it."""
    powers = st.integers(-3000, 3000) | st.integers(-5, 5)
    g = {1: [1, 10.0 ** draw(st.floats(-2.0, 2.0)), 0.0]}
    h = {-1: [-1, draw(_magnitude()), 0.0]}
    for table, base in ((g, 1), (h, -1)):
        for row in draw(_terms(powers.filter(lambda p, base=base: p != base))):
            table[row[0]] = row
    lo = draw(st.floats(-3.0, 2.99))
    hi = draw(st.floats(lo + 0.01, 3.0))
    return {"version": 1, "g": list(g.values()), "h": list(h.values()),
            "r_inner": 10.0**lo, "r_outer": 10.0**hi}


@pytest.fixture
def cat_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(wz.to_json(wz.catenoid_data(1.0, 1 / math.e, math.e)))
    return str(path)


class TestLambda0Command:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["lambda0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda0"] == pytest.approx(solve_lambda0(), rel=1e-14)
        assert doc["residuals"]["sinh_relation"] <= 1e-12
        assert doc["residuals"]["tanh_relation"] <= 1e-10
        assert "tolerances" in doc

    def test_fifteen_digit_rounding(self, capsys):
        _, out, _ = run_cli(["lambda0"], capsys)
        value = json.loads(out)["lambda0"]
        assert value == float(f"{solve_lambda0():.15g}")


class TestCatenoidCommand:
    def test_report(self, tmp_path, capsys):
        spec = tmp_path / "piece.json"
        spec.write_text(json.dumps({"scale": 1.0, "offset": 0.0, "slab": [-1, 1]}))
        code, out, _ = run_cli(["catenoid", "--input", str(spec)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["area"] == pytest.approx(math.pi * math.sinh(2) + 2 * math.pi, rel=1e-12)
        assert doc["residuals"]["area_rel"] <= doc["tolerances"]["area_rtol"]

    def test_unknown_input_key(self, tmp_path, capsys):
        spec = tmp_path / "piece.json"
        spec.write_text(json.dumps({"scale": 1.0, "bogus": 2}))
        code, _, err = run_cli(["catenoid", "--input", str(spec)], capsys)
        assert code == 3 and "unknown keys" in err

    def test_area_overflow_exits_4(self, tmp_path, capsys):
        spec = tmp_path / "thin.json"
        spec.write_text(json.dumps({"scale": 1e-3}))
        code, out, err = run_cli(["catenoid", "--input", str(spec)], capsys)
        assert code == 4 and out == ""
        strict_json(err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [3e-3, 4e-3, 5e-3])
    def test_thin_catenoid_quadrature_stays_finite(self, tmp_path, capsys, scale):
        # the closed form is finite here, but the squared area element is not
        spec = tmp_path / "thin.json"
        spec.write_text(json.dumps({"scale": scale}))
        code, out, err = run_cli(["catenoid", "--input", str(spec)], capsys)
        if code == 0:
            doc = strict_json(out)
            assert doc["residuals"]["area_rel"] <= doc["tolerances"]["area_rtol"]
        else:
            assert code == 4 and out == ""
            assert math.isfinite(strict_json(err)["residuals"]["relative_residual"])


class TestMsCommand:
    def test_low_apex_is_marginal(self, tmp_path, capsys):
        spec = tmp_path / "ms.json"
        spec.write_text(json.dumps({"apex_height": -11.0}))
        code, out, _ = run_cli(["ms", "--input", str(spec)], capsys)
        assert code == 0
        assert abs(json.loads(out)["mu1"]) <= 1e-6

    def test_weight_overflow_exits_4(self, tmp_path, capsys):
        spec = tmp_path / "ms.json"
        spec.write_text(json.dumps({"apex_height": 400}))
        code, out, err = run_cli(["ms", "--input", str(spec)], capsys)
        assert code == 4 and out == ""
        assert json.loads(err)["residuals"]["h_plus"] > 355.0


class TestThresholdCommand:
    def test_sweep_csv_columns(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["threshold", "--sweep", "0.5:50:5", "--format", "csv"], capsys
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["L_minus", "F", "lambda", "offset", "mu1_residual"]
        assert len(out.splitlines()) == 6
        last = out.splitlines()[-1].split(",")
        assert float(last[0]) == 50.0
        assert float(last[4]) <= 1e-4  # marginality residual column

    def test_spanning_query(self, tmp_path, capsys):
        spec = tmp_path / "q.json"
        spec.write_text(
            json.dumps({"lower_length": 11.4, "upper_length": 11.4, "slab": [-1, 1]})
        )
        code, out, _ = run_cli(["threshold", "--input", str(spec)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2 and not doc["tangential"]
        assert doc["residuals"]["max_solution_rel"] <= 1e-9

    def test_bad_sweep_spec(self, capsys):
        code, _, err = run_cli(["threshold", "--sweep", "5:1:10"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [("upper_length", "inf"), ("upper_length", math.inf),
         ("upper_length", math.nan), ("lower_length", math.inf)],
    )
    def test_non_finite_length_refused(self, tmp_path, capsys, key, value):
        doc = {"lower_length": 1.0, "upper_length": 3.0, key: value}
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps(doc))  # math.inf is written as Infinity
        code, out, err = run_cli(["threshold", "--input", str(spec)], capsys)
        assert code == 3 and out == ""
        assert "finite" in err

    def test_huge_upper_length_reports_two_solutions(self, tmp_path, capsys):
        # a finite pair whose solutions' upper circles are near the double's limit
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"lower_length": 1.0, "upper_length": 1e308}))
        code, out, _ = run_cli(["threshold", "--input", str(spec)], capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["count"] == 2
        assert 0.0 <= doc["residuals"]["max_solution_rel"] <= 1e-9


class TestAnnulusCommand:
    def test_report_roundtrip(self, cat_file, capsys):
        code, out, _ = run_cli(["annulus", "--input", cat_file], capsys)
        assert code == 0
        doc = json.loads(out)
        # re-ingested data reproduces derived quantities to <= 1e-12
        assert doc["f3"] == pytest.approx(2 * math.pi, rel=1e-12)
        assert doc["mu"] == pytest.approx(1.0, rel=1e-12)
        assert doc["convexity"]["equality_flag"] is True
        assert max(doc["residuals"].values()) <= 1e-8 * doc["f3"]

    def test_csv_projection_is_profile(self, cat_file, capsys):
        code, out, _ = run_cli(
            ["annulus", "--input", cat_file, "--format", "csv", "--grid", "levels=9"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,height,length,second_derivative"
        assert len(lines) == 10
        for line in lines[1:]:  # catenoid: L'' = L = 2 pi cosh t, edge levels included
            t, _, length, second = (float(v) for v in line.split(","))
            assert length == pytest.approx(2 * math.pi * math.cosh(t), rel=1e-9)
            assert second == pytest.approx(length, rel=1e-12)

    def test_random_trials_seeded(self, capsys):
        code, out1, _ = run_cli(["annulus", "--grid", "trials=2", "--seed", "5"], capsys)
        assert code == 0
        _, out2, _ = run_cli(["annulus", "--grid", "trials=2", "--seed", "5"], capsys)
        assert out1 == out2
        _, out3, _ = run_cli(["annulus", "--grid", "trials=2", "--seed", "6"], capsys)
        assert out1 != out3
        doc = json.loads(out1)
        assert doc["summary"]["worst_min_slack"] >= -1e-7

    def test_overflowing_term_refused(self, tmp_path, capsys):
        # 1e-300 z^2000 is about 1e302 on |z| = e and its z-derivative overflows
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "version": 1, "g": [[1, 1, 0], [2000, 1e-300, 0]], "h": [[-1, 1, 0]],
            "r_inner": 0.5, "r_outer": 2.718281828,
        }))
        code, out, err = run_cli(["annulus", "--input", str(path)], capsys)
        assert code == 3 and out == ""
        assert "power 2000" in err

    @given(document=annulus_documents())
    def test_any_document_exits_cleanly(self, tmp_path_factory, document):
        # runs under the suite's error::RuntimeWarning filter, so an overflow fails it
        path = tmp_path_factory.mktemp("doc") / "annulus.json"
        path.write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["annulus", "--input", str(path)])
        assert code in (0, 3, 4)
        if out.getvalue():
            strict_json(out.getvalue())
        assert (code == 0) == bool(out.getvalue())


class TestOvalCommand:
    def test_ellipse_payload(self, tmp_path, capsys):
        spec = tmp_path / "ellipse.json"
        spec.write_text(json.dumps({"ellipse": [2, 1], "n": 256}))
        code, out, _ = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"length", "lambda1", "functional"}
        assert doc["functional"] >= 0.5

    def test_points_payload(self, tmp_path, capsys):
        u = 2 * np.pi * np.arange(64) / 64
        pts = np.stack([2 * np.cos(u), 2 * np.sin(u), np.zeros(64)], axis=1)
        spec = tmp_path / "pts.json"
        spec.write_text(json.dumps({"points": pts.tolist()}))
        code, out, _ = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda1"] == pytest.approx(0.25, rel=1e-8)
        assert doc["below_conjectured_constant"] is False

    def test_unit_circle_not_below_conjecture(self, tmp_path, capsys):
        spec = tmp_path / "circle.json"
        spec.write_text(json.dumps({"circle": [1]}))
        code, out, _ = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 0
        assert json.loads(out)["below_conjectured_constant"] is False

    @pytest.mark.parametrize(
        "doc",
        [{"ellipse": [2, 1], "n": math.inf}, {"ellipse": [2, 1], "n": 1.5},
         {"ellipse": [2, 1], "n": 10**6}, {"ellipse": [2, math.inf]}, {"circle": [math.nan]}],
    )
    def test_bad_curve_spec_exits_3(self, tmp_path, capsys, doc):
        spec = tmp_path / "curve.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 3 and out == ""

    def test_degenerate_ellipse_exits_4(self, tmp_path, capsys):
        spec = tmp_path / "needle.json"
        spec.write_text(json.dumps({"ellipse": [1, 1e-6]}))
        code, out, err = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 4
        assert out == ""
        assert "min kappa^2" in err


class TestDeterminismAndOutput:
    def test_byte_identical_files(self, cat_file, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["annulus", "--input", cat_file, "--output", a]) == 0
        assert cli.main(["annulus", "--input", cat_file, "--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_env_default_output_dir(self, cat_file, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "results"
        monkeypatch.setenv("CATSLAB_OUTPUT_DIR", str(out_dir))
        assert cli.main(["lambda0"]) == 0
        emitted = out_dir / "lambda0.json"
        assert emitted.exists()
        assert json.loads(emitted.read_text())["lambda0"] == pytest.approx(
            solve_lambda0(), rel=1e-14
        )

    def test_csv_reingestion_matches(self, capsys):
        _, out, _ = run_cli(["threshold", "--sweep", "1:20:4", "--format", "csv"], capsys)
        _, out_json, _ = run_cli(["threshold", "--sweep", "1:20:4"], capsys)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        table = json.loads(out_json)["table"]
        for row, rec in zip(rows, table):
            assert float(row[1]) == rec["F"]  # CSV is an exact projection


class TestExitCodes:
    def test_unknown_tolerance_key(self, capsys):
        code, _, err = run_cli(["threshold", "--tol", "bogus=1"], capsys)
        assert code == 2 and "bad configuration" in err

    def test_unknown_grid_key(self, capsys):
        code, _, err = run_cli(
            ["threshold", "--sweep", "1:2:2", "--grid", "scan_points=200"], capsys
        )
        assert code == 2 and "bad configuration" in err

    def test_grid_below_minimum(self, capsys):
        code, _, err = run_cli(["ms", "--grid", "mesh=8"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [["annulus", "--grid", "levels=100000"],
         ["annulus", "--grid", "trials=1000000"],
         ["catenoid", "--grid", "n_theta=1000000"],
         ["ms", "--grid", "mesh=1000000000"],
         ["oval", "--grid", "n=1000000"],
         ["threshold", "--sweep", "1:2:1000000000"]],
    )
    def test_grid_above_maximum(self, capsys, args):
        # refused while the configuration is checked, before anything is allocated
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and "bad configuration" in err

    def test_knob_defaults_within_bounds(self):
        for command, kinds in cli._KNOBS.items():
            for table in kinds.values():
                for key, (default, lo, hi) in table.items():
                    if default is not None:  # annulus trials: giving it selects a mode
                        assert lo <= default <= hi, (command, key)

    def test_negative_tolerance(self, capsys):
        code, _, _ = run_cli(["oval", "--tol", "rtol=-1"], capsys)
        assert code == 2

    def test_missing_input(self, capsys):
        code, _, err = run_cli(["annulus"], capsys)
        assert code == 3

    def test_unparsable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, err = run_cli(["annulus", "--input", str(bad)], capsys)
        assert code == 3

    def test_invalid_weierstrass_data(self, tmp_path, capsys):
        doc = {"version": 1, "g": [[1, 1.0, 0.0]], "h": [[-1, 1.0, 0.1]],
               "r_inner": 0.5, "r_outer": 2.0}
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(["annulus", "--input", str(bad)], capsys)
        assert code == 3

    @pytest.mark.parametrize("name, row", [("g", [1.5, 0.01, 0.0]), ("h", [1, math.nan, 0.0])])
    def test_bad_weierstrass_row(self, tmp_path, capsys, name, row):
        doc = json.loads(wz.to_json(wz.catenoid_data(1.0, 1 / math.e, math.e)))
        doc[name].append(row)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run_cli(["annulus", "--input", str(bad)], capsys)
        assert code == 3 and out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_exits_4(self, capsys, monkeypatch, fmt):
        rows = [{"x": 1.0}, {"x": math.nan}]
        monkeypatch.setitem(cli._HANDLERS, "lambda0", lambda config: ({"table": rows}, rows))
        code, out, err = run_cli(["lambda0", "--format", fmt], capsys)
        assert code == 4 and out == ""
        assert strict_json(err)["residuals"]["table"][1]["x"] == "nan"

    def test_non_finite_residual_dump_is_strict(self, capsys, monkeypatch):
        def fail(config):
            raise ConvergenceError("diverged", {"residual": math.inf, "trace": [1.0, -math.inf]})

        monkeypatch.setitem(cli._HANDLERS, "lambda0", fail)
        code, out, err = run_cli(["lambda0"], capsys)
        assert code == 4 and out == ""
        assert strict_json(err)["residuals"] == {"residual": "inf", "trace": [1.0, "-inf"]}

    @pytest.mark.parametrize("apex", [-1e200, 1e200])
    def test_extreme_apex_exits_4(self, tmp_path, capsys, apex):
        # both tangency heights are solved (one near 1e-200, one near 1e200);
        # the cosh^2 weight of the Jacobi operator then overflows on the slab
        path = tmp_path / "apex.json"
        path.write_text(json.dumps({"apex_height": apex}))
        code, out, err = run_cli(["ms", "--input", str(path)], capsys)
        assert code == 4 and out == ""
        assert "overflows" in strict_json(err)["error"]

    def test_linalg_error_exits_4(self, capsys, monkeypatch):
        def fail(config):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setitem(cli._HANDLERS, "lambda0", fail)
        code, out, err = run_cli(["lambda0"], capsys)
        assert code == 4 and out == ""
        assert strict_json(err) == {"error": "eigenvalues did not converge", "residuals": {}}

    def test_memory_error_exits_5(self, capsys, monkeypatch):
        def fail(config):
            raise MemoryError("grid of 1e12 points")

        monkeypatch.setitem(cli._HANDLERS, "lambda0", fail)
        code, out, err = run_cli(["lambda0"], capsys)
        assert code == 5 and out == ""
        assert strict_json(err) == {"error": "out of memory: grid of 1e12 points"}

    def test_nonconvergence_dumps_residuals(self, tmp_path, capsys):
        data = wz.WeierstrassData({1: 1.0, 5: 0.3}, {-1: 1.0}, 0.8, 1.25)
        path = tmp_path / "wiggly.json"
        path.write_text(wz.to_json(data))
        code, _, err = run_cli(
            ["annulus", "--input", str(path), "--grid", "n_theta=8"], capsys
        )
        assert code == 4
        dump = json.loads(err)
        assert "residuals" in dump and dump["residuals"]["n_theta"] == 8
