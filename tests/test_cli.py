"""Command-line interface: input forms, outputs, exit codes."""

import collections
import contextlib
import io
import json
import math
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import perptri.cli as cli_mod
import perptri.geom as geom_mod
import perptri.ratio as ratio_mod
from perptri.cli import fmt, main, triangle_from_spec
from perptri.construction import construct
from perptri.ratio import CHECK_ORDER, residual_bound
from perptri.svg import svg_document

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


COLLINEAR = "vertices are collinear at the triangle's own scale"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


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
        assert [m.ang_a, m.ang_b, m.ang_g] == pytest.approx(
            [reference.ang_a, reference.ang_b, reference.ang_g], rel=1e-12)


@pytest.mark.parametrize("doc, err", [
    ([], "specification must be a JSON object"),
    ("text", "specification must be a JSON object"),
    ({}, "specification needs exactly one of: vertices, sides, angles"),
    ({"vertices": {}, "sides": {}}, "specification needs exactly one of: vertices, sides, angles"),
    ({"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}, "phi": 45, "zeta": 1},
     "unknown keys in specification: ['phi', 'zeta']"),
    ({"sides": [5, 3, 4]}, "sides must be a JSON object"),
    ({"angles": None}, "angles must be a JSON object"),
    ({"vertices": {"A": [0, 0], "B": [1, 0]}}, 'vertices must contain exactly "A", "B", "Gamma"'),
    ({"sides": {"alpha": 1, "beta": 1, "gamma": 1, "extra": 2}},
     'sides must contain exactly "alpha", "beta", "gamma"'),
    ({"angles": {"B_deg": 30, "Gamma_deg": 30}},
     'angles must contain exactly "B_deg", "Gamma_deg", "scale"'),
    ({"sides": {"alpha": "5", "beta": 3, "gamma": 4}}, "alpha must be a number"),
    ({"angles": {"B_deg": 30, "Gamma_deg": True, "scale": 1}}, "Gamma_deg must be a number"),
    ({"vertices": {"A": [0, 0], "B": [4, None], "Gamma": [0, 3]}}, "B[1] must be a number"),
    ({"sides": {"alpha": 10**400, "beta": 1, "gamma": 1}}, "alpha must be finite"),
    ({"angles": {"B_deg": 30, "Gamma_deg": 30, "scale": math.inf}}, "scale must be finite"),
    ({"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [math.nan, 3]}},
     "Gamma[0] must be finite"),
    ({"vertices": {"A": [0], "B": [4, 0], "Gamma": [0, 3]}}, "A must be a [x, y] pair"),
    ({"vertices": {"A": [0, 0], "B": {"x": 4, "y": 0}, "Gamma": [0, 3]}},
     "B must be a [x, y] pair"),
    ({"angles": {"B_deg": 90, "Gamma_deg": 90, "scale": 1}},
     "angles must be positive with B_deg + Gamma_deg < 180"),
    ({"angles": {"B_deg": 0, "Gamma_deg": 30, "scale": 1}},
     "angles must be positive with B_deg + Gamma_deg < 180"),
    ({"sides": {"alpha": 1, "beta": 1, "gamma": 3}},
     "sides (1.0, 1.0, 3.0) violate the strict triangle inequality"),
    ({"sides": {"alpha": 1, "beta": 1, "gamma": 2}},
     "sides (1.0, 1.0, 2.0) violate the strict triangle inequality"),
    ({"vertices": {"A": [0, 0], "B": [1, 0], "Gamma": [2, 0]}}, COLLINEAR),
    ({"vertices": {"A": [0, 0], "B": [0, 0], "Gamma": [0, 0]}}, COLLINEAR),
    # collinear at a scale where every product of coordinates underflows
    ({"vertices": {"A": [0, 0], "B": [1e-200, 0], "Gamma": [2e-200, 0]}}, COLLINEAR),
    # B + Gamma < 180 deg, but their radians round to a sum of pi
    ({"angles": {"B_deg": 55.24192105079066, "Gamma_deg": 124.75807894920932, "scale": 1}},
     "base angles (0.9641534074630627, 2.1774392461267302) do not leave room for angle A"),
    ({"angles": {"B_deg": 90, "Gamma_deg": 1e-300, "scale": 1e10}},
     "laid out in the input's units, the triangle does not fit binary64"),
    ({"vertices": {"A": [0, 0], "B": [1e-200, 0], "Gamma": [2e-200, 1e-300]}},
     "smallest angle 5e-101 rad is too thin to verify in binary64: "
     "the bound 64 eps/theta^2 = 5.68e+186 reaches 1"),
], ids=["list", "string", "no-form", "two-forms", "unknown-keys", "sides-body", "angles-body",
        "vertices-keys", "sides-keys", "angles-keys", "string-number", "bool-number",
        "null-coordinate", "huge-integer", "infinite-scale", "nan-coordinate", "short-pair",
        "object-pair", "angle-sum", "zero-angle", "long-side", "flat-sides", "collinear",
        "coincident", "collinear-underflow", "angle-sum-rounds-to-pi", "gamma-at-infinity",
        "tiny-sliver"])
def test_spec_errors_print_their_one_line(tmp_path, capsys, doc, err):
    assert main(["metrics", write_spec(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_sides_form_takes_the_correctly_rounded_cosine():
    # Squared unscaled with `**2` (libm pow), the cosine of A comes out one ulp
    # high and Gamma moves in its last digits.  Gamma's x = beta cos A and
    # y**2 = beta**2 - x**2 must match their exact values to an ulp or two of
    # the largest side.
    alpha, beta, gamma = 3.2123826716726754e29, 1.887081152381928e29, 3.823025227943602e29
    t = triangle_from_spec({"sides": {"alpha": alpha, "beta": beta, "gamma": gamma}})
    assert (t.g.x, t.g.y) == (1.0276148169877274e29, 1.5827454197003334e29)
    a, b, c = map(Fraction, (alpha, beta, gamma))
    x = (b * b + c * c - a * a) / (2 * c)
    ulp = math.ulp(max(alpha, beta, gamma))
    assert abs(Fraction(t.g.x) - x) <= ulp
    assert abs(Fraction(t.g.y) ** 2 - (b * b - x * x)) <= 2 * ulp * Fraction(t.g.y)


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


def test_metrics_of_the_laid_out_needle(tmp_path, capsys):
    # Side 1e-6 between two unit sides: A = 2 asin(5e-7) rad, which is
    # 5.7295779513084708e-05 deg, to the last bit.  The cotangent and sine
    # areas, which read the angles, then agree with the shoelace; heron and
    # sixteen_sq_poly read only the sides.
    spec = write_spec(tmp_path, {"sides": {"alpha": 1e-6, "beta": 1, "gamma": 1}})
    assert main(["metrics", "--json", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 1e-6
    assert payload["angles_deg"]["A"] == 5.729577951308471e-05
    areas = payload["areas"]
    for route in ("cot_formula", "sine_formula"):
        assert abs(areas[route] - areas["shoelace"]) <= 4 * math.ulp(areas["shoelace"]), route


def test_verify_passes_a_right_triangle_far_from_the_origin(tmp_path, capsys):
    # Angle A lies about 1e-13 off pi/2 once the vertices are rounded; its
    # cotangent is cos/sin of that angle and the bound C eps / theta**2.
    spec = {"vertices": {"A": [305.5885421359101, 373.56722245306287],
                         "B": [305.5390084466886, 373.4530075935066],
                         "Gamma": [305.6868396457121, 373.52459193790315]}}
    assert main(["verify", write_spec(tmp_path, spec)]) == 0
    out = capsys.readouterr().out
    assert "case: right" in out and "verdict: PASS" in out
    assert "bound: 64 eps/theta^2 = " in out


def test_verify_json_prints_a_nan_residual_as_null(tmp_path, capsys, monkeypatch):
    def with_nan(t):
        report = ratio_mod.identity_report(t)
        return report._replace(residuals={**report.residuals, "area_ratio": math.nan})

    monkeypatch.setattr(cli_mod, "identity_report", with_nan)
    assert main(["verify", "--json", write_spec(tmp_path, SPEC_VERTICES)]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["residuals"]["area_ratio"] is None
    assert type(payload["residuals"]["area_increment"]) is float


def test_verify_json_schema(tmp_path, capsys):
    assert main(["verify", "--json", write_spec(tmp_path, SPEC_VERTICES)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["case", "smallest_angle_rad", "residuals", "bound", "passed",
                             "first_failing", "angle_a_deg", "within", "bound_constant"]
    assert payload["case"] == "right"
    assert list(payload["residuals"]) == list(CHECK_ORDER)
    assert all(type(value) is float for value in payload["residuals"].values())
    assert payload["passed"] is True and payload["first_failing"] is None
    assert payload["bound"] == residual_bound(payload["smallest_angle_rad"])
    assert all(type(payload[key]) is float
               for key in ("smallest_angle_rad", "bound", "angle_a_deg", "bound_constant"))
    assert payload["within"] == dict.fromkeys(CHECK_ORDER, True)
    assert (payload["angle_a_deg"], payload["bound_constant"]) == (90.0, 64.0)


def test_verify_text_of_345(tmp_path, capsys):
    # The whole text, so that a slip of the renderer shows.
    assert main(["verify", write_spec(tmp_path, SPEC_VERTICES)]) == 0
    assert capsys.readouterr() == ("""\
case: right (angle A = 90 deg)
smallest angle theta: 0.643501108793 rad
bound: 64 eps/theta^2 = 3.43179707972e-14
identity residuals
  area_increment                          0  PASS
  sixteen_area_sq                         0  PASS
  cot_term_a              9.60507293449e-18  PASS
  cot_term_g              2.50081033264e-17  PASS
  cot_term_b              3.99181312225e-17  PASS
  squared_sum_expansion                   0  PASS
  chain_sum                               0  PASS
  area_quadratic                          0  PASS
  half_angle_cots         1.48029736617e-16  PASS
  area_from_cots          2.53765262771e-17  PASS
  area_ratio              4.98950685709e-16  PASS
  area_agreement          2.96059473233e-16  PASS
verdict: PASS
""", "")


# B = 60 deg, scale 1.  Down to Gamma = 1e-5 deg (theta = 1.7e-7 rad, bound
# 0.47) every residual stays within C eps / theta**2; below, the bound passes
# 1 and verify refuses a verdict with one line, exit 2.
@pytest.mark.parametrize("gamma_deg, expected", [
    (1e-3, 0), (1e-4, 0), (3e-5, 0), (1e-5, 0), (3e-6, 2), (1e-6, 2)])
def test_verify_thin_triangles(tmp_path, capsys, gamma_deg, expected):
    spec = {"angles": {"B_deg": 60, "Gamma_deg": gamma_deg, "scale": 1}}
    code = main(["verify", write_spec(tmp_path, spec)])
    captured = capsys.readouterr()
    assert code == expected
    if expected == 0:
        assert captured.out.endswith("verdict: PASS\n")
        assert "FAIL" not in captured.out
        return
    assert captured.out == ""
    assert captured.err.startswith("error: smallest angle") and "too thin" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


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


def equilateral(form, side):
    """The equilateral triangle of the given side, in the sides or the angles form."""
    if form == "sides":
        return {"sides": {"alpha": side, "beta": side, "gamma": side}}
    return {"angles": {"B_deg": 60, "Gamma_deg": 60, "scale": side}}


SCALAR_COMMANDS = [["verify"], ["verify", "--json"], ["metrics"], ["metrics", "--json"],
                   ["construct"], ["construct", "--json"], ["construct", "--phi", "37.5"],
                   ["construct", "--phi", "37.5", "--json"]]


@pytest.mark.parametrize("side", [5e-324, 1e-320, 1e-315, 1e-310, 1e-308])
@pytest.mark.parametrize("form", ["sides", "angles"])
def test_layouts_below_the_normal_range_exit_two_on_one_line(tmp_path, capsys, form, side):
    # Laid out in the input's units, a triangle below the normal range rounds
    # to another shape: the equilateral one of side 5e-324 to a right one,
    # which verify used to pass.  Every scalar command refuses it alike.
    path = write_spec(tmp_path, equilateral(form, side))
    errors = set()
    for command in SCALAR_COMMANDS:
        code = main([*command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), command
        errors.add(captured.err)
    assert errors == {f"error: laid out, the triangle's largest coordinate {side!r} is below "
                      "binary64's normal range, where rounding changes its shape\n"}


def test_layout_beyond_binary64_exits_two_on_one_line(tmp_path, capsys):
    # Gamma lies about 2e308 from A: the layout, not a vertex the user never
    # gave, is named in the one line every command prints.
    path = write_spec(tmp_path, {"angles": {"B_deg": 179, "Gamma_deg": 0.5, "scale": 1e308}})
    errors = set()
    for command in [*SCALAR_COMMANDS, ["render", "--out", str(tmp_path / "fig.svg")]]:
        code = main([*command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), command
        errors.add(captured.err)
    assert errors == {"error: laid out in the input's units, the triangle does not fit "
                      "binary64\n"}
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("doc, err", [
    ({"sides": {"alpha": 0, "beta": 3, "gamma": 4}},
     "sides (0.0, 3.0, 4.0) violate the strict triangle inequality"),
    ({"sides": {"alpha": 5, "beta": -3, "gamma": 4}},
     "sides (5.0, -3.0, 4.0) violate the strict triangle inequality"),
    ({"sides": {"alpha": 0, "beta": 0, "gamma": 0}},
     "sides (0.0, 0.0, 0.0) violate the strict triangle inequality"),
    ({"sides": {"alpha": -1, "beta": -1, "gamma": -1}},
     "sides (-1.0, -1.0, -1.0) violate the strict triangle inequality"),
    ({"angles": {"B_deg": 60, "Gamma_deg": 60, "scale": 0}}, "scale must be positive, got 0.0"),
    ({"angles": {"B_deg": 60, "Gamma_deg": 60, "scale": -2}},
     "scale must be positive, got -2.0"),
], ids=["zero-side", "negative-side", "zero-sides", "negative-sides", "zero-scale",
        "negative-scale"])
def test_non_positive_sides_and_scales_exit_two_on_one_line(tmp_path, capsys, doc, err):
    path = write_spec(tmp_path, doc)
    for command in SCALAR_COMMANDS:
        assert main([*command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n"), command


@pytest.mark.parametrize("side", [2.3e-308, 1e-300])
@pytest.mark.parametrize("form", ["sides", "angles"])
def test_layouts_just_inside_the_normal_range_keep_their_shape(tmp_path, capsys, form, side):
    code = main(["verify", write_spec(tmp_path, equilateral(form, side))])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("case: acute (angle A = 60 deg)\n")
    assert captured.out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
@pytest.mark.parametrize("command", [["metrics"], ["metrics", "--json"],
                                     ["construct"], ["construct", "--json"]])
def test_area_out_of_range_exits_two(tmp_path, capsys, command, scale):
    # The sides fit binary64 but the area does not: 6e400 and 6e-400 are out
    # of range, and 6e-320 is subnormal, where binary64 keeps too few bits.
    code = main([*command, write_spec(tmp_path, scaled_345("vertices", scale))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: area does not fit binary64 in the input's units\n"


def test_flat_apex_is_measured_and_exits_two_on_the_bound_in_verify(tmp_path, capsys):
    # A = 2e-7 deg, laid out with Gamma = (1, 3.4906584289728926e-09): atan2
    # measures the laid-out angle A, not 0.  verify, metrics, construct and
    # render all judge theta against the bound before they take a cotangent,
    # and print the same line.
    spec = write_spec(tmp_path, {"angles": {"B_deg": 89.9999999, "Gamma_deg": 89.9999999,
                                            "scale": 1}})
    err = ("error: smallest angle 3.4906584289728926e-09 rad is too thin to verify in binary64: "
           "the bound 64 eps/theta^2 = 1.17e+03 reaches 1\n")
    for command in (["verify"], ["metrics"], ["construct"], ["construct", "--phi", "30"],
                    ["render", "--out", str(tmp_path / "fig.svg")]):
        assert main([*command, spec]) == 2
        assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("doc", [
    {"vertices": {"A": [0, 0], "B": [1, 0],
                  "Gamma": [0.40084707137978337, 1.2010387776921146e-08]}},
    {"angles": {"B_deg": 60, "Gamma_deg": 3e-6, "scale": 1}},
], ids=["needle", "gamma-3e-6-deg"])
def test_verify_refuses_a_too_thin_triangle_on_the_bound(tmp_path, capsys, doc):
    # The needle's s - gamma rounds to 0, so the chain has no half-angle
    # radical to take; verify judges theta first and prints the bound line,
    # and metrics and construct print the same line.
    spec = write_spec(tmp_path, doc)
    assert main(["verify", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert THIN_LINE.fullmatch(err)
    for command in (["metrics"], ["metrics", "--json"], ["construct"], ["construct", "--json"]):
        assert main([*command, spec]) == 2
        assert capsys.readouterr() == ("", err)


THIN_LINE = re.compile(r"error: smallest angle \S+ rad is too thin to verify in binary64: "
                       r"the bound 64 eps/theta\^2 = \S+ reaches 1\n")
COLLINEAR_LINE = f"error: {COLLINEAR}\n"


def test_slivers_below_the_old_floor_exit_two_on_one_line(monkeypatch, capsys):
    # Slivers whose area lies below 1e-9 times their squared longest side,
    # the floor Triangle once rejected them on: heights down to 1e-320 of
    # the base, sizes 10**U(-150, 150), half of them turned and moved.  Each
    # command that reads an angle exits 2 with the same one line, the bound's
    # or, where the doubled area rounds to 0, the collinear one, and prints
    # nothing on stdout, under --json too.
    rng = random.Random(15)
    refusals = collections.Counter()
    for _ in range(120):
        size, x = 10.0 ** rng.uniform(-150.0, 150.0), rng.uniform(-0.5, 1.5)
        h = 10.0 ** rng.uniform(-320.0, -9.0) * max(1.0, x * x, (1.0 - x) ** 2)
        points = [(0.0, 0.0), (size, 0.0), (size * x, size * h)]
        if rng.random() < 0.5:
            turn, direction = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            offset = size * 10.0 ** rng.uniform(0.0, 4.0)
            c, s = math.cos(turn), math.sin(turn)
            points = [(offset * math.cos(direction) + c * px - s * py,
                       offset * math.sin(direction) + s * px + c * py) for px, py in points]
        doc = json.dumps({"vertices": dict(zip(("A", "B", "Gamma"), points))})
        phi = f"{rng.uniform(1.0, 90.0)!r}"
        errs = set()
        for command in (["verify"], ["verify", "--json"], ["metrics"], ["metrics", "--json"],
                        ["construct"], ["construct", "--json", "--phi", phi]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            assert main([*command, "-"]) == 2, (command, doc)
            out, err = capsys.readouterr()
            assert out == "", (command, doc)
            assert err == COLLINEAR_LINE or THIN_LINE.fullmatch(err), (command, doc)
            errs.add(err)
        assert len(errs) == 1, doc
        refusals[errs.pop() == COLLINEAR_LINE] += 1
    assert refusals[True] > 0 and refusals[False] > 100


def test_each_command_measures_the_source_triangle_once(tmp_path, capsys, monkeypatch):
    # The Triangle measures itself and every scalar path reads that; construct
    # measures A'B'Gamma' once more, in similarity_check.
    calls = []
    real = geom_mod.anchored_metrics

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("perptri") and hasattr(module, "anchored_metrics"):
            monkeypatch.setattr(module, "anchored_metrics", counted)
    spec = write_spec(tmp_path, SPEC_VERTICES)
    for command, expected in (("verify", 1), ("metrics", 1), ("construct", 2)):
        calls.clear()
        assert main([command, spec]) == 0
        assert len(calls) == expected, command
    capsys.readouterr()


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


def test_construct_coincidence_agrees_with_the_case(tmp_path, capsys):
    # A - pi/2 = 1.05e-8, outside the right band, while Gamma' lies 9.85e-10
    # of the longest side from B: the case is obtuse and Gamma' is not on B.
    spec = write_spec(tmp_path, {"angles": {"B_deg": 84.6, "Gamma_deg": 5.3999994, "scale": 1}})
    assert main(["construct", "--json", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "obtuse"
    assert payload["gamma_prime_coincides_with_b"] is False
    assert main(["construct", spec]) == 0
    out = capsys.readouterr().out
    assert "case: obtuse" in out
    assert "coincides" not in out


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


@pytest.mark.parametrize("doc", [SPEC_SIDES, SPEC_VERTICES], ids=["sides", "vertices"])
def test_render(tmp_path, capsys, doc):
    # render is the one SVG path: its file is the figure of construct(t).
    out_path = tmp_path / "fig.svg"
    code = main(["render", "--out", str(out_path), write_spec(tmp_path, doc)])
    assert code == 0
    assert capsys.readouterr() == (f"wrote {out_path}\n", "")
    expected = svg_document(construct(triangle_from_spec(doc)))
    assert out_path.read_text(encoding="utf-8") == expected


def test_render_draws_what_construct_cannot_print(tmp_path, capsys):
    # A' lies beyond binary64 in the input's units, where construct prints
    # it; render draws in the frame and converts nothing.
    doc = {"sides": {"alpha": 1.7e308, "beta": 1.7e308, "gamma": 1.7e308}}
    spec = write_spec(tmp_path, doc)
    assert main(["construct", spec]) == 2
    assert capsys.readouterr() == ("", "error: A' does not fit binary64 in the input's units\n")
    out_path = tmp_path / "fig.svg"
    assert main(["render", "--out", str(out_path), spec]) == 0
    assert capsys.readouterr() == (f"wrote {out_path}\n", "")
    expected = svg_document(construct(triangle_from_spec(doc)))
    assert out_path.read_text(encoding="utf-8") == expected


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
    assert list(payload) == ["n", "seed", "stratum", "case_counts", "max_residuals",
                             "min_cot_sum_triangle", "over_bound", "bound_constant"]
    assert payload["bound_constant"] == 64.0
    assert payload["case_counts"]["right"] == 40
    assert payload["min_cot_sum_triangle"]["cot_sum"] >= 2.0 - 1e-12
    assert payload["over_bound"] == 0


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_sweep_exits_one_over_the_bound(capsys, monkeypatch, json_flag):
    # A negative constant puts every triangle over the bound.
    monkeypatch.setattr(ratio_mod, "BOUND_CONSTANT", -1.0)
    assert main(["sweep", "--n", "30", *json_flag]) == 1
    out = capsys.readouterr().out
    if json_flag:
        assert json.loads(out)["over_bound"] == 30
    else:
        assert " eps/theta^2: 30\n" in out


def test_sweep_empty(capsys):
    assert main(["sweep", "--n", "0"]) == 0
    assert "no samples" in capsys.readouterr().out


def test_sweep_empty_json_is_strict(capsys):
    # An empty sweep has no residuals: their maxima print as null, not NaN.
    assert main(["sweep", "--n", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert set(payload["max_residuals"].values()) == {None}
    assert payload["min_cot_sum_triangle"] is None


@pytest.mark.parametrize("option, value", [("--n", "-5"), ("--seed", "-1")], ids=["n", "seed"])
def test_sweep_negative_count_or_seed_exits_two(capsys, option, value):
    assert main(["sweep", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {option}: must be non-negative, got {value}\n"


def test_sweep_of_any_size_streams_until_interrupted(capsys, monkeypatch):
    # No --n is refused for its size: a sweep of 10**20 triangles starts
    # streaming, and an interrupt in its fourth chunk stops it after the
    # chunks already submitted, a window of two per worker.
    import perptri.sweep as sweep_mod

    started = []

    def reduce_chunk(rows_at, n, start):
        started.append(start)
        if start >= 3 * sweep_mod.CHUNK:
            raise KeyboardInterrupt
        return [1, 0, 0], [0.0] * len(CHECK_ORDER), 1.0, start, 0

    monkeypatch.setattr(sweep_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sweep_mod, "_reduce_chunk", reduce_chunk)
    assert main(["sweep", "--n", str(10**20)]) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: interrupted\n")
    assert 3 * sweep_mod.CHUNK in started and len(started) <= 3 * 2 * 2


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus", "-"],
    [],
    ["sweep", "--n"],
    ["bogus"],
], ids=["unknown-option", "no-command", "missing-value", "unknown-command"])
def test_command_line_mistakes_print_one_error_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


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
# the text is a rendering of the payload
# ---------------------------------------------------------------------------

def _leaves(payload):
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [leaf for item in payload for leaf in _leaves(item)]
    return [payload]


#: Label text with digits of its own, not read from the payload.
LABELS = ("phi = 90 deg only", "k = 1/sqrt(3)", "theta^2")


def assert_text_renders_payload(argv):
    """argv's text holds only fmt() of its payload's numbers and the payload's words."""
    args = cli_mod.build_parser().parse_args(argv)
    payload, code = args.func(args)
    leaves = _leaves(payload)
    numbers = {fmt(leaf) for leaf in leaves
               if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)}
    words = {leaf for leaf in leaves if isinstance(leaf, str)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    text = out.getvalue()
    assert text
    stripped = text
    for label in LABELS:
        stripped = stripped.replace(label, "")
    for token in re.split(r"[\s=(),:\[\];]+", stripped):
        try:
            float(token)
        except ValueError:
            continue
        assert token in numbers, (argv, token)
    for pattern in (r"case: (\S+)", r"family: (\S+)", r"stratum=(\S+)", r"identity: (\S+)\)",
                    r"^wrote (.+)$"):
        for word in re.findall(pattern, text, re.MULTILINE):
            assert word in words, (argv, word)
    verdicts = dict(re.findall(r"^  (\w+) +\S+  (PASS|FAIL)$", text, re.MULTILINE))
    assert verdicts == {name: "PASS" if ok else "FAIL"
                        for name, ok in payload.get("within", {}).items()}
    if "passed" in payload:
        assert f"verdict: {'PASS' if payload['passed'] else 'FAIL'}" in text
    if "gamma_prime_coincides_with_b" in payload:
        assert ("Gamma' coincides with B" in text) == payload["gamma_prime_coincides_with_b"]
    return payload, code


RENDER_SPECS = [SPEC_VERTICES, SPEC_SIDES,
                {"angles": {"B_deg": 84.6, "Gamma_deg": 5.3999994, "scale": 1}},
                {"vertices": {"A": [-1.3, 0.4], "B": [5.1, -0.2], "Gamma": [1.0, 3.7]}}]


@pytest.mark.parametrize("doc", RENDER_SPECS, ids=["345", "sides", "near-right", "scalene"])
def test_scalar_text_renders_the_payload(tmp_path, monkeypatch, doc):
    spec = write_spec(tmp_path, doc)
    for command in (["metrics"], ["verify"], ["construct"], ["construct", "--phi", "60"]):
        assert_text_renders_payload([*command, spec])
    out = str(tmp_path / "fig.svg")
    assert assert_text_renders_payload(["render", "--out", out, spec]) == ({"out": out}, 0)
    monkeypatch.setattr(ratio_mod, "BOUND_CONSTANT", -1.0)
    payload, code = assert_text_renders_payload(["verify", spec])
    assert code == 1 and payload["first_failing"] == CHECK_ORDER[0]


def test_sweep_and_minimize_text_renders_the_payload(monkeypatch):
    assert assert_text_renders_payload(["sweep", "--n", "0"])[0]["min_cot_sum_triangle"] is None
    assert_text_renders_payload(["minimize"])
    assert_text_renders_payload(["minimize", "--right"])
    monkeypatch.setattr(ratio_mod, "BOUND_CONSTANT", -1.0)
    payload, code = assert_text_renders_payload(["sweep", "--n", "50", "--seed", "3"])
    assert (code, payload["over_bound"]) == (1, 50)


def test_metrics_runs_no_chain(tmp_path, capsys, monkeypatch):
    # metrics takes its five areas from ratio.area_routes: neither the
    # identity chain nor the derived triangle runs, and the output is the same.
    spec = write_spec(tmp_path, SPEC_SIDES)
    commands = (["metrics", spec], ["metrics", "--json", spec])
    expected = [(main(argv), capsys.readouterr()) for argv in commands]

    def refuse(*args):
        raise AssertionError("metrics ran the identity chain")

    for name, module in list(sys.modules.items()):
        for attr in ("identity_chain", "derived_triangle"):
            if name.startswith("perptri") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    assert [(main(argv), capsys.readouterr()) for argv in commands] == expected
    assert expected[0][0] == 0 and expected[0][1].err == ""


# ---------------------------------------------------------------------------
# failure modes all land on exit code 2 with a single-line error
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# a closed stdout and an interrupt: 141 and 130, at most one stderr line
# ---------------------------------------------------------------------------

class ClosedStdout(io.StringIO):
    """A stdout whose reader is gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["metrics", "--json"], ["verify"]])
def test_closed_stdout_exits_141_silently(argv, tmp_path, capsys, monkeypatch):
    # The only test of main's `except (OSError, ValueError)`: a stdout with no file descriptor.
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main([*argv, write_spec(tmp_path, SPEC_VERTICES)]) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_of_a_process_exits_141_silently():
    # The reader is gone before the child writes, as it reads its spec first;
    # the flush at exit then finds stdout on devnull and raises nothing.
    proc = subprocess.Popen([sys.executable, "-m", "perptri", "metrics", "--json", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(json.dumps(SPEC_VERTICES).encode(), timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_interrupted_sweep_of_a_process_exits_130_with_one_line():
    # Python's own SIGINT handler, in a real process, while the sweep's pool
    # waits.  The child installs that handler itself, since a child started
    # with SIGINT ignored (a background job of a non-interactive shell) would
    # get none.  It writes a line only once its sweep is under way, and sweeps
    # again until the signal lands, so the signal reaches neither its start-up
    # nor its exit.
    code = ("import signal, sys\n"
            "from perptri import cli, sweep\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "reduce_chunks = sweep._reduce_chunks\n"
            "def announced(n, reduce_at):\n"
            "    print('sweeping', flush=True)\n"
            "    while True:\n"
            "        reduce_chunks(n, reduce_at)\n"
            "sweep._reduce_chunks = announced\n"
            "sys.exit(cli.main(['sweep', '--n', '1000000']))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"sweeping\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, out, err) == (130, b"", b"error: interrupted\n")


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
