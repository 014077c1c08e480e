import contextlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

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


def _numbers():
    """Numbers of either sign from 1e-3 to 1e3 and from 1e-300 to 1e300, zero,
    the non-finite floats (written as Infinity and NaN) and a few non-numbers."""
    sign = st.sampled_from([1.0, -1.0])
    moderate = st.tuples(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), sign)
    extreme = st.tuples(_magnitude(), sign)
    return (
        (moderate | extreme).map(lambda t: t[0] * t[1])
        | st.sampled_from([0.0, math.inf, -math.inf, math.nan])
        | st.sampled_from(["1", None, [1.0], {}])
    )


def _slabs():
    ordered = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(sorted)
    return ordered | st.lists(_numbers(), max_size=3)


# the documents of the commands that read one; each value may be out of range,
# non-finite or of the wrong type, and an unknown key may ride along
_DOCUMENTS = {
    "catenoid": st.fixed_dictionaries(
        {"scale": _numbers()},
        optional={"offset": _numbers(), "slab": _slabs(), "bogus": _numbers()},
    ),
    "ms": st.fixed_dictionaries({"apex_height": _numbers()}, optional={"bogus": _numbers()}),
    "threshold": st.fixed_dictionaries(
        {"lower_length": _numbers(), "upper_length": _numbers()},
        optional={"slab": _slabs(), "bogus": _numbers()},
    ),
}


def _run_document(tmp_path_factory, command, document, args=()):
    """(exit code, stdout) of ``command --input`` on the document (no --input
    when it is None) and further arguments, run in process."""
    argv = [command, *args]
    if document is not None:
        path = tmp_path_factory.mktemp("doc") / f"{command}.json"
        path.write_text(json.dumps(document))
        argv += ["--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def assert_exits_cleanly_and_repeats(tmp_path_factory, command, document, args=()):
    # runs under the suite's error::RuntimeWarning filter, so an overflow fails it
    code, out = first = _run_document(tmp_path_factory, command, document, args)
    assert code in (0, 2, 3, 4, 5)
    if out:
        strict_json(out)
    assert (code == 0) == bool(out)
    assert _run_document(tmp_path_factory, command, document, args) == first


@st.composite
def sweep_specs(draw):
    """--sweep A:B:N texts with counts up to 5: three in four well-formed with
    ends from 1e-2 to 1e5, the rest with ends of either sign from 1e-300 to
    1e300, zero, non-finite or not numbers, bad counts or a wrong separator."""
    if draw(st.integers(0, 3)):
        lower = 10.0 ** draw(st.floats(-2.0, 4.0))
        return f"{lower!r}:{lower * draw(st.floats(1.01, 8.0))!r}:{draw(st.integers(2, 5))}"
    parts = [str(draw(_numbers())), str(draw(_numbers())), str(draw(st.integers(-1, 5)))]
    return draw(st.sampled_from([":", ","])).join(parts)


@st.composite
def oval_documents(draw):
    """Ellipse, circle or smooth point documents with an optional "n" up to
    1024: three in four well-formed, with aspects up to 2 and sizes from 1e-3
    to 1e3; the rest with sizes from 1e-300 to 1e300, too few points, lists of
    the wrong length or arbitrary numbers."""
    good = draw(st.integers(0, 3)) > 0
    size = 10.0 ** draw(st.floats(-3.0, 3.0)) if good else draw(_magnitude())
    kind = draw(st.sampled_from(["ellipse", "circle", "points"]))
    if kind == "points":
        count = draw(st.integers(32, 96) if good else st.integers(0, 96))
        u = 2 * np.pi * np.arange(count) / max(count, 1)
        wave = draw(st.floats(0.0, 0.3)) * np.cos(draw(st.integers(1, 3)) * u)
        points = np.stack([(1 + wave) * np.cos(u), np.sin(u), wave], axis=1)
        value = (size * points).tolist()
    else:
        axis = st.floats(0.5, 2.0).map(lambda q: q * size)
        width = 2 if kind == "ellipse" else 1
        value = draw(st.lists(axis if good else axis | _numbers(), min_size=width,
                              max_size=width if good else 3))
    optional = {"bogus": _numbers(), "n": st.integers(32, 1024) | st.integers(-1, 31)
                | _numbers()}
    if good:  # "n" only where it is read, and no unknown key
        optional = {"n": st.integers(32, 1024)} if kind != "points" else {}
    return {kind: value, **draw(st.fixed_dictionaries({}, optional=optional))}


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


_CATENOID_DOC = json.loads(wz.to_json(wz.catenoid_data(1.0, 1 / math.e, math.e)))
# each mode's arguments without knobs or --input
_PLAIN_RUNS = {
    "lambda0": ["lambda0"],
    "catenoid": ["catenoid"],
    "ms": ["ms"],
    "threshold": ["threshold"],
    "threshold --sweep": ["threshold", "--sweep", "1:2:2"],
    "annulus": ["annulus"],
    "annulus trials": ["annulus", "--grid", "trials=1"],
    "oval": ["oval"],
}
# the document of each mode's --input
_MODE_DOCUMENTS = {
    "catenoid": {"scale": 1.0}, "ms": {"apex_height": 0.5},
    "threshold": {"lower_length": 11.4, "upper_length": 11.4}, "threshold --sweep": {},
    "annulus": _CATENOID_DOC, "oval": {"circle": [1]},
}
_SELECTORS = {"threshold": "--sweep", "annulus": "trials"}  # they pick the other mode


def _outside_knobs(mode, input_path):
    """Every flag and --tol/--grid key of the table that ``mode`` does not
    take, each with a value its own row accepts."""
    row, selector = cli._KNOBS[mode], _SELECTORS.get(mode.split()[0])
    flag_values = {"--input": input_path, "--seed": "5", "--sweep": "1:2:2"}
    knobs = [[flag, value] for flag, value in flag_values.items()
             if flag not in row["flags"] and flag != selector]
    for kind in ("tol", "grid"):
        for other in cli._KNOBS.values():
            for key, (default, _, _) in other[kind].items():
                if key not in row[kind] and key != selector:
                    knobs.append([f"--{kind}", f"{key}={default}"])
    return knobs


@pytest.fixture(scope="module")
def mode_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("modes")
    paths = {}
    for mode, document in _MODE_DOCUMENTS.items():
        paths[mode] = str(directory / f"{mode.replace(' ', '_')}.json")
        with open(paths[mode], "w") as handle:
            json.dump(document, handle)
    return paths


@pytest.fixture
def cat_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(_CATENOID_DOC))
    return str(path)


_BIG = "1" + "0" * 400  # an integer literal beyond the double range
_WEIERSTRASS = '"g": [[1, 1, 0]], "h": [[-1, 1, 0]], "r_outer": 2'


# documents that hold a value other than a finite number: each (command
# arguments, document text) exits 3 with empty stdout
_NON_NUMERIC_DOCUMENTS = {
    "catenoid-big-int": (["catenoid"], f'{{"scale": {_BIG}}}'),
    "ms-big-int": (["ms"], f'{{"apex_height": {_BIG}}}'),
    "threshold-big-int": (["threshold"], f'{{"lower_length": {_BIG}, "upper_length": 1}}'),
    "sweep-big-int-slab": (["threshold", "--sweep", "1:2:2"], f'{{"slab": [0, {_BIG}]}}'),
    "oval-big-int": (["oval"], f'{{"circle": [{_BIG}]}}'),
    "annulus-big-int": (["annulus"], f'{{"version": 1, {_WEIERSTRASS}, "r_inner": {_BIG}}}'),
    "ms-string": (["ms"], '{"apex_height": "0.5"}'),
    "ms-bool": (["ms"], '{"apex_height": true}'),
    "ms-nan-token": (["ms"], '{"apex_height": NaN}'),
    "catenoid-infinity-token": (["catenoid"], '{"scale": Infinity}'),
    "catenoid-string-slab": (["catenoid"], '{"scale": 1, "slab": "03"}'),
    "sweep-string-slab": (["threshold", "--sweep", "1:2:2"], '{"slab": "03"}'),
    "threshold-null": (["threshold"], '{"lower_length": null, "upper_length": 1}'),
    "oval-string-ellipse": (["oval"], '{"ellipse": "21"}'),
    "oval-bool-n": (["oval"], '{"ellipse": [2, 1], "n": true}'),
    "annulus-bool-version": (["annulus"], f'{{"version": true, {_WEIERSTRASS}, "r_inner": 0.5}}'),
    "annulus-bool-power": (
        ["annulus"],
        '{"version": 1, "g": [[true, 1, 0]], "h": [[-1, 1, 0]], "r_inner": 0.5, "r_outer": 2}',
    ),
    "annulus-string-radius": (
        ["annulus"], f'{{"version": 1, {_WEIERSTRASS}, "r_inner": "0.5"}}'
    ),
}


@pytest.mark.parametrize("args, text", list(_NON_NUMERIC_DOCUMENTS.values()),
                         ids=list(_NON_NUMERIC_DOCUMENTS))
def test_non_numeric_document_exits_3(tmp_path, capsys, args, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli([*args, "--input", str(path)], capsys)
    assert code == 3 and out == ""
    assert "must hold finite numbers only" in err


def test_deeply_nested_document_exits_3(tmp_path, capsys):
    # nested beyond the JSON decoder's recursion limit, which raised RecursionError
    path = tmp_path / "doc.json"
    path.write_text('{"scale": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(["catenoid", "--input", str(path)], capsys)
    assert code == 3 and out == "" and "not valid JSON" in err


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
    def test_far_slab_exits_4_naming_the_height_step(self, tmp_path, capsys):
        # the closed form is 6.8336, but h +- 1e-5 rounds back to h near 1e12
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"scale": 1.0, "offset": 1e12 + 0.5, "slab": [1e12, 1e12 + 1]}))
        code, out, err = run_cli(["catenoid", "--input", str(spec)], capsys)
        assert code == 4 and out == ""
        dump = strict_json(err)
        assert "height step" in dump["error"]
        assert dump["residuals"]["step"] == 1e-5

    @given(document=_DOCUMENTS["catenoid"])
    def test_any_document_exits_cleanly(self, tmp_path_factory, document):
        assert_exits_cleanly_and_repeats(tmp_path_factory, "catenoid", document)

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

    @pytest.mark.parametrize("apex", [400.0, 1e200, -1e200])
    def test_extreme_apex_is_marginal(self, tmp_path, capsys, apex):
        # the piece reaches |s| ~ 401 or ~1e200, where a cosh^2 weight would
        # overflow; the closed-form check has none
        spec = tmp_path / "ms.json"
        spec.write_text(json.dumps({"apex_height": apex}))
        code, out, _ = run_cli(["ms", "--input", str(spec)], capsys)
        assert code == 0
        doc = strict_json(out)
        assert abs(doc["mu1"]) <= 1e-6
        assert max(doc["residuals"].values()) <= doc["tolerances"]["tangency"]

    @given(document=_DOCUMENTS["ms"])
    def test_any_document_exits_cleanly(self, tmp_path_factory, document):
        assert_exits_cleanly_and_repeats(tmp_path_factory, "ms", document)


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

    def test_overflowing_threshold_exits_4(self, tmp_path, capsys):
        # F(0.01) is beyond the double range, which strict JSON cannot hold
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"lower_length": 0.01, "upper_length": 1.0}))
        code, out, err = run_cli(["threshold", "--input", str(spec)], capsys)
        assert code == 4 and out == ""
        dump = strict_json(err)
        assert dump["residuals"]["threshold_upper"] == "inf" and dump["residuals"]["count"] == 0

    def test_huge_upper_length_reports_two_solutions(self, tmp_path, capsys):
        # a finite pair whose solutions' upper circles are near the double's limit
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"lower_length": 1.0, "upper_length": 1e308}))
        code, out, _ = run_cli(["threshold", "--input", str(spec)], capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["count"] == 2
        assert 0.0 <= doc["residuals"]["max_solution_rel"] <= 1e-9

    @given(document=_DOCUMENTS["threshold"])
    def test_any_document_exits_cleanly(self, tmp_path_factory, document):
        assert_exits_cleanly_and_repeats(tmp_path_factory, "threshold", document)

    @given(spec=sweep_specs(), document=st.none() | st.fixed_dictionaries(
        {}, optional={"slab": _slabs(), "bogus": _numbers()}))
    def test_any_sweep_exits_cleanly(self, tmp_path_factory, spec, document):
        assert_exits_cleanly_and_repeats(
            tmp_path_factory, "threshold", document, ["--sweep=" + spec]
        )


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

    @given(trials=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_any_seed_gives_a_convex_table(self, trials, seed):
        argv = ["annulus", "--grid", f"trials={trials}", "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        doc = strict_json(out.getvalue())
        assert len(doc["table"]) == trials
        worst = doc["summary"]["worst_min_slack"]
        assert worst == min(row["min_slack"] for row in doc["table"])
        assert worst >= doc["tolerances"]["slack_floor"] == -1e-7
        rerun = io.StringIO()
        with contextlib.redirect_stdout(rerun):
            assert cli.main(argv) == 0
        assert rerun.getvalue() == out.getvalue()

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

    def test_huge_curve_exits_4(self, tmp_path, capsys):
        # lambda1 ~ 1e-400 is below the doubles: a numerical failure naming it
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"circle": [1e200]}))
        code, out, err = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 4 and out == ""
        assert "lambda1" in strict_json(err)["error"]

    @pytest.mark.parametrize("radius", [1e-320, 1e305, 1e306, 1e307, 1e308])
    def test_extreme_sizes_exit_without_warnings(self, tmp_path, radius):
        # in a child process that turns every RuntimeWarning into an error: a
        # subnormal size is bad input, and beyond 1e305 lambda1 ~ 1/r^2 and
        # the length leave the doubles although the curve's FFTs stay in range
        spec = tmp_path / "circle.json"
        spec.write_text(json.dumps({"circle": [radius]}))
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "catslab.cli",
             "oval", "--input", str(spec)],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, check=False,
        )
        assert proc.stdout == ""
        if radius < 1.0:
            assert proc.returncode == 3 and "size" in proc.stderr
        else:
            assert proc.returncode == 4
            assert re.search("lambda1|length", strict_json(proc.stderr)["error"])

    def test_points_take_no_n(self, tmp_path, capsys):
        u = 2 * np.pi * np.arange(64) / 64
        pts = np.stack([np.cos(u), np.sin(u), np.zeros(64)], axis=1).tolist()
        spec = tmp_path / "pts.json"
        spec.write_text(json.dumps({"points": pts, "n": 64}))
        code, out, err = run_cli(["oval", "--input", str(spec)], capsys)
        assert code == 3 and out == "" and "'n'" in err

    @given(document=oval_documents())
    def test_any_document_exits_cleanly(self, tmp_path_factory, document):
        assert_exits_cleanly_and_repeats(tmp_path_factory, "oval", document)


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
        code, _, err = run_cli(["catenoid", "--grid", "n_height=1"], capsys)
        assert code == 2 and "must be in" in err

    @pytest.mark.parametrize(
        "args",
        [["annulus", "--grid", "levels=100000"],
         ["annulus", "--grid", "trials=1000000"],
         ["catenoid", "--grid", "n_height=513"],
         ["catenoid", "--grid", "n_height=100000"],
         ["oval", "--grid", "n=1000000"],
         ["threshold", "--sweep", "1:2:1000000000"]],
    )
    def test_grid_above_maximum(self, capsys, args):
        # refused while the configuration is checked, before anything is allocated
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and "bad configuration" in err

    def test_catenoid_has_no_angle_knob(self, capsys):
        # its quadrature runs on the height axis alone
        code, out, err = run_cli(["catenoid", "--grid", "n_theta=256"], capsys)
        assert code == 2 and out == "" and "unknown grid key 'n_theta'" in err

    def test_knob_defaults_within_bounds(self):
        for mode, row in cli._KNOBS.items():
            for kind in ("tol", "grid"):
                for key, (default, lo, hi) in row[kind].items():
                    assert lo <= default <= hi, (mode, key)

    def test_every_mode_reads_every_knob(self):
        # the handler's positional parameters are its row's flags, in order,
        # and its keyword parameters are exactly the row's --tol and --grid keys
        parameter_of = {"--input": "doc", "--seed": "seed", "--sweep": "sweep"}
        for mode, row in cli._KNOBS.items():
            params = inspect.signature(row["run"]).parameters.values()
            positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
            keywords = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
            assert len(positional) + len(keywords) == len(params), mode
            assert positional == [parameter_of[flag] for flag in row["flags"]], mode
            assert not set(row["tol"]) & set(row["grid"]), mode
            assert sorted(keywords) == sorted([*row["tol"], *row["grid"]]), mode

    def test_readme_table_lists_every_knob(self):
        # each README row shows exactly its mode's flags, --tol keys and --grid
        # keys, with each numeric default in brackets; a required flag, the
        # sweep's optional slab document and the selector trials show none
        lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| mode | flags | `--tol` | `--grid` |") + 2
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            mode, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            table[mode.replace("`", "")] = [
                {name.split()[0]: float(default) if default else None
                 for name, default in re.findall(r"`([^`]+)`(?:\s*\[([^\]]+)\])?", cell)}
                for cell in cells
            ]

        def shown(key, default):
            numeric = isinstance(default, (int, float)) and key not in _SELECTORS.values()
            return float(default) if numeric else None

        assert sorted(table) == sorted(cli._KNOBS)
        for mode, row in cli._KNOBS.items():
            assert table[mode] == [
                {flag: shown(flag, default) for flag, default in row["flags"].items()},
                {key: shown(key, spec[0]) for key, spec in row["tol"].items()},
                {key: shown(key, spec[0]) for key, spec in row["grid"].items()},
            ], mode

    @pytest.mark.parametrize(
        "args",
        [["lambda0", "--sweep", "1:2:3", "--seed", "5", "--input", "/nonexistent"],
         ["lambda0", "--input", "/nonexistent"],
         ["annulus", "--grid", "trials=1", "--input", "/nonexistent", "--sweep", "1:2:2"],
         ["annulus", "--grid", "trials=1", "--input", "/nonexistent"],
         ["threshold", "--sweep", "1:2:2", "--seed", "5"],
         ["ms", "--sweep", "1:2:2"],
         ["oval", "--seed", "5"]],
    )
    def test_ignored_flag_refused(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "command, document, plain, knob",
        [("threshold", {"lower_length": 11.4, "upper_length": 11.4}, [], ["--grid", "mesh=16"]),
         ("threshold", None, ["--sweep", "1:2:2"], ["--tol", "tangential_rtol=0.5"]),
         ("annulus", _CATENOID_DOC, [], ["--seed", "5"]),
         ("oval", {"circle": [1]}, [], ["--grid", "n=256"]),
         ("ms", {"apex_height": 0.5}, [], ["--grid", "mesh=4096"]),
         ("threshold", None, ["--sweep", "1:2:2"], ["--grid", "mesh=1024"])],
        ids=["pair-mesh", "sweep-tangential_rtol", "document-seed", "oval-n", "ms-mesh",
             "sweep-mesh"],
    )
    def test_knob_outside_mode_refused(self, tmp_path_factory, command, document, plain, knob):
        # each knob was once accepted by its mode and is refused now; the
        # first four were never read, the Jacobi mesh left with the FD solve
        code, out = _run_document(tmp_path_factory, command, document, plain)
        assert code == 0 and out
        assert _run_document(tmp_path_factory, command, document, plain + knob) == (2, "")

    @given(data=st.data())
    def test_any_knob_outside_the_mode_exits_2(self, mode_inputs, data):
        mode = data.draw(st.sampled_from(sorted(_PLAIN_RUNS)))
        plain = [*_PLAIN_RUNS[mode]]
        if "--input" in cli._KNOBS[mode]["flags"]:
            plain += ["--input", mode_inputs[mode]]
        cli.build_config(plain)  # a valid configuration without the knob
        knob = data.draw(st.sampled_from(_outside_knobs(mode, mode_inputs["annulus"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(plain + knob)
        assert (code, out.getvalue()) == (2, "")

    def test_period_tolerance_is_fixed(self, tmp_path, capsys):
        # residual 2 pi * 2e-8 in g dh: 2e-8 * F3, above the fixed 1e-8 * F3
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps({
            "version": 1, "g": [[1, 1.0, 0.0]], "h": [[-1, 1.0, 0.0], [-2, 2e-8, 0.0]],
            "r_inner": 0.5, "r_outer": 2.0,
        }))
        code, out, err = run_cli(
            ["annulus", "--input", str(path), "--tol", "period_rtol=1e-6"], capsys
        )
        assert code == 2 and out == "" and "unknown tol key" in err
        code, out, err = run_cli(["annulus", "--input", str(path)], capsys)
        assert code == 3 and out == "" and "exceed 1.0e-08 * F3" in err

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
        monkeypatch.setitem(cli._KNOBS["lambda0"], "run", lambda: ({"table": rows}, rows))
        code, out, err = run_cli(["lambda0", "--format", fmt], capsys)
        assert code == 4 and out == ""
        assert strict_json(err)["residuals"]["table"][1]["x"] == "nan"

    def test_non_finite_residual_dump_is_strict(self, capsys, monkeypatch):
        def fail():
            raise ConvergenceError("diverged", {"residual": math.inf, "trace": [1.0, -math.inf]})

        monkeypatch.setitem(cli._KNOBS["lambda0"], "run", fail)
        code, out, err = run_cli(["lambda0"], capsys)
        assert code == 4 and out == ""
        assert strict_json(err)["residuals"] == {"residual": "inf", "trace": [1.0, "-inf"]}

    def test_linalg_error_exits_4(self, capsys, monkeypatch):
        def fail():
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setitem(cli._KNOBS["lambda0"], "run", fail)
        code, out, err = run_cli(["lambda0"], capsys)
        assert code == 4 and out == ""
        assert strict_json(err) == {"error": "eigenvalues did not converge", "residuals": {}}

    def test_memory_error_exits_5(self, capsys, monkeypatch):
        def fail():
            raise MemoryError("grid of 1e12 points")

        monkeypatch.setitem(cli._KNOBS["lambda0"], "run", fail)
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
