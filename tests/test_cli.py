"""Command-line interface: input forms, outputs, exit codes."""

import io
import json
import math

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
