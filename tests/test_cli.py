"""Command-line interface: input forms, outputs, exit codes."""

import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from perptri.cli import main, triangle_from_spec
from perptri.errors import ParseError
from perptri.ratio import CHECK_ORDER

SPEC_VERTICES = {"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}}
SPEC_SIDES = {"sides": {"alpha": 5, "beta": 3, "gamma": 4}}
SPEC_ANGLES = {
    "angles": {
        "B_deg": math.degrees(math.atan2(3.0, 4.0)),
        "Gamma_deg": math.degrees(math.atan2(4.0, 3.0)),
        "scale": 4,
    }
}


def write_spec(tmp_path, doc, name="tri.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# specification parsing
# ---------------------------------------------------------------------------

def test_three_forms_agree():
    triangles = [triangle_from_spec(doc) for doc in (SPEC_VERTICES, SPEC_SIDES, SPEC_ANGLES)]
    from perptri.geom import metrics

    reference = metrics(triangles[0])
    for t in triangles[1:]:
        m = metrics(t)
        assert m.alpha == pytest.approx(reference.alpha, rel=1e-9)
        assert m.beta == pytest.approx(reference.beta, rel=1e-9)
        assert m.gamma == pytest.approx(reference.gamma, rel=1e-9)
        assert m.area == pytest.approx(reference.area, rel=1e-9)


@pytest.mark.parametrize(
    "doc",
    [
        [],                                            # not an object
        {},                                            # no form at all
        {"vertices": {}, "sides": {}},                 # two forms
        {"vertices": {"A": [0, 0], "B": [1, 0]}},      # missing Gamma
        {"sides": {"alpha": 1, "beta": 1}},            # missing gamma
        {"sides": {"alpha": 1, "beta": 1, "gamma": 1, "extra": 2}},
        {"angles": {"B_deg": 90, "Gamma_deg": 90, "scale": 1}},
        {"angles": {"B_deg": 30, "Gamma_deg": 30, "scale": -1}},
        {"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}, "phi": 45},
        {"sides": {"alpha": "5", "beta": 3, "gamma": 4}},
        {"vertices": {"A": [0], "B": [4, 0], "Gamma": [0, 3]}},
        {"sides": {"alpha": -5, "beta": 3, "gamma": 4}},
    ],
)
def test_bad_specs_raise(doc):
    with pytest.raises((ParseError, Exception)):
        triangle_from_spec(doc)


def test_impossible_sides_rejected():
    with pytest.raises(Exception):
        triangle_from_spec({"sides": {"alpha": 1, "beta": 1, "gamma": 3}})


def test_sides_form_takes_the_correctly_rounded_cosine():
    # Squared unscaled with `**2` (libm pow), the cosine of A comes out one ulp
    # high and Gamma moves in its last digits; the sides form must take the
    # exact cosine, rounded once.
    alpha, beta, gamma = 3.2123826716726754e29, 1.887081152381928e29, 3.823025227943602e29
    t = triangle_from_spec({"sides": {"alpha": alpha, "beta": beta, "gamma": gamma}})
    assert (t.g.x, t.g.y) == (1.0276148169877274e29, 1.5827454197003334e29)
    a, b, c = map(Fraction, (alpha, beta, gamma))
    ang_a = math.acos(float((b * b + c * c - a * a) / (2 * b * c)))
    assert (t.g.x, t.g.y) == (beta * math.cos(ang_a), beta * math.sin(ang_a))


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_metrics_text(tmp_path, capsys):
    code = main(["metrics", write_spec(tmp_path, SPEC_VERTICES)])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha (|B Gamma|): 5" in out
    assert "semi-perimeter: 6" in out
    assert out.count("6") >= 5  # five area routes all print 6


def test_metrics_json(tmp_path, capsys):
    code = main(["metrics", "--json", write_spec(tmp_path, SPEC_SIDES)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(5.0)
    assert payload["angles_deg"]["A"] == pytest.approx(90.0)
    for value in payload["areas"].values():
        assert value == pytest.approx(6.0, rel=1e-9)


def test_metrics_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SPEC_VERTICES)))
    assert main(["metrics", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == pytest.approx(4.0)


def test_verify_passes(tmp_path, capsys):
    code = main(["verify", write_spec(tmp_path, SPEC_VERTICES)])
    out = capsys.readouterr().out
    assert code == 0
    assert "case: right" in out
    assert "verdict: PASS" in out
    assert out.count("PASS") == len(CHECK_ORDER) + 1  # one per identity + verdict


def test_verify_json(tmp_path, capsys):
    code = main(["verify", "--json", write_spec(tmp_path, SPEC_ANGLES)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["first_failing"] is None
    assert payload["tier"] == "main"
    assert set(payload["residuals"]) == set(payload["tolerances"])


def test_verify_far_from_origin_passes(tmp_path, capsys):
    spec = {"vertices": {"A": [1e8, 1e8], "B": [1e8 + 1, 1e8], "Gamma": [1e8, 1e8 + 1]}}
    code = main(["verify", write_spec(tmp_path, spec)])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def scaled_345(form, scale):
    """The 3-4-5 triangle times scale, in one of the three input forms."""
    if form == "vertices":
        return {"vertices": {"A": [0, 0], "B": [4 * scale, 0], "Gamma": [0, 3 * scale]}}
    if form == "sides":
        return {"sides": {"alpha": 5 * scale, "beta": 3 * scale, "gamma": 4 * scale}}
    return {"angles": {**SPEC_ANGLES["angles"], "scale": 4 * scale}}


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-200, 1e300, 1e-300])
@pytest.mark.parametrize("form", ["vertices", "sides", "angles"])
def test_verify_passes_at_extreme_sizes(tmp_path, capsys, form, scale):
    # Measured in the triangle's frame, far from unit size too.
    code = main(["verify", write_spec(tmp_path, scaled_345(form, scale))])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("command", [["metrics"], ["metrics", "--json"],
                                     ["construct"], ["construct", "--json"]])
def test_area_out_of_range_exits_two(tmp_path, capsys, command, scale):
    # The sides fit binary64 but the area, 6e400 or 6e-400, does not.
    code = main([*command, write_spec(tmp_path, scaled_345("vertices", scale))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: area does not fit binary64 in the input's units\n"


def test_verify_zero_computed_angle_exits_two(tmp_path, capsys):
    # A = 2e-7 deg: the law of cosines rounds cos A to 1, so acos gives A = 0.0.
    spec = {"angles": {"B_deg": 89.9999999, "Gamma_deg": 89.9999999, "scale": 1}}
    code = main(["verify", write_spec(tmp_path, spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_construct_json_matches_frozen_oracle(tmp_path, capsys):
    code = main(["construct", "--json", write_spec(tmp_path, SPEC_VERTICES)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    ap = payload["vertices"]["A_prime"]
    bp = payload["vertices"]["B_prime"]
    gp = payload["vertices"]["Gamma_prime"]
    assert ap[0] == pytest.approx(4.0, abs=1e-9)
    assert ap[1] == pytest.approx(25.0 / 3.0, abs=1e-9)
    assert bp[0] == pytest.approx(-2.25, abs=1e-9)
    assert gp == pytest.approx([4.0, 0.0], abs=1e-9)
    assert payload["ratio_geometric"] == pytest.approx(625.0 / 144.0, rel=1e-9)
    assert payload["ratio_formula_applies"] is True
    assert payload["gamma_prime_coincides_with_b"] is True


def test_construct_text_notes_coincidence(tmp_path, capsys):
    code = main(["construct", write_spec(tmp_path, SPEC_VERTICES)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Gamma' coincides with B" in out


def test_construct_at_partial_phi(tmp_path, capsys):
    code = main(["construct", "--json", "--phi", "60", write_spec(tmp_path, SPEC_VERTICES)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratio_formula_applies"] is False
    assert max(payload["similarity_discrepancies_rad"]) < 1e-9
    assert payload["gamma_prime_coincides_with_b"] is False


def test_construct_phi_out_of_range(tmp_path, capsys):
    code = main(["construct", "--phi", "120", write_spec(tmp_path, SPEC_VERTICES)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_construct_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "figure.svg"
    code = main([
        "construct",
        "--out", str(out_path),
        write_spec(tmp_path, SPEC_VERTICES),
    ])
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith("<svg")


def test_render(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code = main(["render", "--out", str(out_path), write_spec(tmp_path, SPEC_SIDES)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert out_path.exists()


def test_sweep_text_deterministic(capsys):
    assert main(["sweep", "--n", "50", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--n", "50", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "max residuals" in first
    assert "min cot sum" in first


def test_sweep_json(capsys):
    assert main(["sweep", "--json", "--n", "40", "--seed", "2", "--stratum", "right"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case_counts"]["right"] == 40
    assert payload["min_cot_sum_triangle"]["cot_sum"] >= 2.0 - 1e-12


def test_sweep_empty(capsys):
    assert main(["sweep", "--n", "0"]) == 0
    assert "no samples" in capsys.readouterr().out


def test_sweep_negative_n_exits_two(capsys):
    assert main(["sweep", "--n", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "n must be" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_minimize_global(capsys):
    assert main(["minimize", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_ratio"] == pytest.approx(3.0, abs=1e-12)
    assert payload["min_cot_sum"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert payload["argmin_angles_deg"]["B"] == pytest.approx(60.0, abs=1e-9)


def test_minimize_right(capsys):
    assert main(["minimize", "--right", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_ratio"] == 4.0
    assert payload["argmin_angles_deg"]["B"] == pytest.approx(45.0, abs=1e-9)


# ---------------------------------------------------------------------------
# failure modes all land on exit code 2 with a single-line error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "doc",
    [
        {"sides": {"alpha": 1, "beta": 1, "gamma": 3}},
        {"vertices": {"A": [0, 0], "B": [1, 0], "Gamma": [2, 0]}},
        {"angles": {"B_deg": 120, "Gamma_deg": 80, "scale": 1}},
        {"nonsense": True},
        {"sides": {"alpha": 10**400, "beta": 1, "gamma": 1}},  # overflows a float
        # B + Gamma < 180 deg, but their radians round to a sum of pi
        {"angles": {"B_deg": 55.24192105079066, "Gamma_deg": 124.75807894920932, "scale": 1}},
        {"angles": {"B_deg": 90, "Gamma_deg": 1e-300, "scale": 1e10}},  # Gamma at infinity
        # collinear at a scale where every product of coordinates underflows
        {"vertices": {"A": [0, 0], "B": [1e-200, 0], "Gamma": [2e-200, 0]}},
        {"vertices": {"A": [0, 0], "B": [1e-200, 0], "Gamma": [2e-200, 1e-300]}},
        {"vertices": {"A": [0, 0], "B": [0, 0], "Gamma": [0, 0]}},
    ],
)
def test_invalid_inputs_exit_two(tmp_path, capsys, doc):
    code = main(["metrics", write_spec(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.err.strip().count("\n") == 0


def test_unreadable_file_exits_two(capsys):
    code = main(["metrics", "/nonexistent/path.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["metrics", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"sides": {"alpha": 5, "beta": 3, "gamma": 4}} \xff')
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count("\n") == 1


def test_integer_over_json_digit_limit_exits_two(tmp_path, capsys):
    # json refuses integers of more than 4300 digits with a plain ValueError.
    path = tmp_path / "huge.json"
    path.write_text('{"sides": {"alpha": 1' + "0" * 5000 + ', "beta": 1, "gamma": 1}}',
                    encoding="utf-8")
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON:")
    assert err.count("\n") == 1


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # json gives up on nesting deeper than the recursion limit with RecursionError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# an unexpected exception is an internal error: exit 3, never 1
# ---------------------------------------------------------------------------

def test_library_value_error_exits_three(tmp_path, capsys, monkeypatch):
    # A plain ValueError from the library is a defect, not bad input.
    def broken(t):
        raise ValueError("defect")

    monkeypatch.setattr("perptri.cli.identity_report", broken)
    assert main(["verify", write_spec(tmp_path, SPEC_VERTICES)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: ValueError('defect')\n"


def test_unexpected_exception_exits_three():
    # A defect deep in the library, in a real process: one line, no traceback.
    code = ("import sys\n"
            "from perptri import cli, ratio\n"
            "def broken(*frame):\n"
            "    raise ZeroDivisionError('defect')\n"
            "ratio.identity_chain = broken\n"
            "sys.exit(cli.main(['verify', '-']))\n")
    run = subprocess.run([sys.executable, "-c", code], input=json.dumps(SPEC_VERTICES),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr.startswith("error: internal: ")
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
