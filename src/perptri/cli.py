"""Command-line interface.

Subcommands: metrics, verify, construct, sweep, minimize, render.  Triangle
input is a single JSON document (file path argument, or stdin when the
argument is "-" or omitted) in exactly one of three forms:

    {"vertices": {"A": [x, y], "B": [x, y], "Gamma": [x, y]}}
    {"sides":    {"alpha": a, "beta": b, "gamma": c}}
    {"angles":   {"B_deg": b, "Gamma_deg": g, "scale": s}}

Sides are laid out with A at the origin and B at (gamma, 0); the angle form
places A at the origin and B at (scale, 0).  Angles are degrees at this
boundary only.  Exit codes: 0 success, 1 verification failure, 2 bad input,
3 internal error (any other exception, reported on one line).
All floating-point text output uses fixed 12-significant-digit formatting so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .construction import AngleCase, construct, similarity_check
from .errors import GeometryError, NotATriangleError, ParseError
from .extremal import (
    global_cot_sum_min,
    minimize_slice,
    right_triangle_min,
)
from .geom import MATH, Point2, Triangle, frame_exponent, in_units
from .ratio import CHECK_ORDER, identity_chain, identity_report
from .sampling import STRATA, triangle_from_angles
from .svg import render_svg


def fmt(value: float) -> str:
    """Fixed 12-significant-digit rendering; normalizes negative zero."""
    return f"{value + 0.0:.12g}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _as_number(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number")
    try:
        result = float(value)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    _require(math.isfinite(result), f"{name} must be finite")
    return result


def non_negative_int(text: str) -> int:
    """The value of --n: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"n must be non-negative, got {n}")
    return n


def _as_point(value, name: str) -> Point2:
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{name} must be a [x, y] pair")
    return Point2(_as_number(value[0], f"{name}[0]"), _as_number(value[1], f"{name}[1]"))


def triangle_from_spec(doc) -> Triangle:
    """Build a Triangle from a parsed specification document."""
    _require(isinstance(doc, dict), "specification must be a JSON object")
    forms = [key for key in ("vertices", "sides", "angles") if key in doc]
    _require(len(forms) == 1,
             "specification needs exactly one of: vertices, sides, angles")
    unknown = set(doc) - {"vertices", "sides", "angles"}
    _require(not unknown, f"unknown keys in specification: {sorted(unknown)}")
    body = doc[forms[0]]
    _require(isinstance(body, dict), f"{forms[0]} must be a JSON object")

    if forms[0] == "vertices":
        _require(set(body) == {"A", "B", "Gamma"},
                 'vertices must contain exactly "A", "B", "Gamma"')
        return Triangle(
            _as_point(body["A"], "A"),
            _as_point(body["B"], "B"),
            _as_point(body["Gamma"], "Gamma"),
        )

    if forms[0] == "sides":
        _require(set(body) == {"alpha", "beta", "gamma"},
                 'sides must contain exactly "alpha", "beta", "gamma"')
        alpha = _as_number(body["alpha"], "alpha")
        beta = _as_number(body["beta"], "beta")
        gamma = _as_number(body["gamma"], "gamma")
        _require(min(alpha, beta, gamma) > 0.0, "side lengths must be positive")
        # The lengths scaled exactly so the largest lies in [0.5, 1): neither
        # their sum nor their squares overflow or underflow.
        exp = frame_exponent(MATH, alpha, beta, gamma)
        a, b, c = math.ldexp(alpha, -exp), math.ldexp(beta, -exp), math.ldexp(gamma, -exp)
        if not max(a, b, c) < 0.5 * (a + b + c):
            raise NotATriangleError(
                f"sides ({alpha}, {beta}, {gamma}) violate the strict triangle inequality"
            )
        ang_a = MATH.acos((b * b + c * c - a * a) / (2.0 * b * c))
        return Triangle(
            Point2(0.0, 0.0),
            Point2(gamma, 0.0),
            Point2(beta * math.cos(ang_a), beta * math.sin(ang_a)),
        )

    _require(set(body) == {"B_deg", "Gamma_deg", "scale"},
             'angles must contain exactly "B_deg", "Gamma_deg", "scale"')
    b_deg = _as_number(body["B_deg"], "B_deg")
    g_deg = _as_number(body["Gamma_deg"], "Gamma_deg")
    scale = _as_number(body["scale"], "scale")
    _require(b_deg > 0.0 and g_deg > 0.0 and b_deg + g_deg < 180.0,
             "angles must be positive with B_deg + Gamma_deg < 180")
    _require(scale > 0.0, "scale must be positive")
    return triangle_from_angles(math.radians(b_deg), math.radians(g_deg), scale)


def load_triangle(spec_arg: str | None) -> Triangle:
    try:
        if spec_arg in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(spec_arg, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"specification is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax, > 4300 digits, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    return triangle_from_spec(doc)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_metrics(args) -> int:
    t = load_triangle(args.spec)
    exp, bx, by, gx, gy = t.frame
    chain = identity_chain(bx, by, gx, gy)
    m = chain.metrics.in_units(exp)
    areas = {name: in_units(value, 2 * exp, f"area ({name})")
             for name, value in chain.areas.items()}
    if args.json:
        _emit_json(
            {
                "alpha": m.alpha,
                "beta": m.beta,
                "gamma": m.gamma,
                "angles_deg": {
                    "A": math.degrees(m.ang_a),
                    "B": math.degrees(m.ang_b),
                    "Gamma": math.degrees(m.ang_g),
                },
                "semi_perimeter": m.s,
                "areas": areas,
            }
        )
        return 0
    print("sides")
    print(f"  alpha (|B Gamma|): {fmt(m.alpha)}")
    print(f"  beta  (|Gamma A|): {fmt(m.beta)}")
    print(f"  gamma (|A B|):     {fmt(m.gamma)}")
    print("angles (degrees)")
    print(f"  A:     {fmt(math.degrees(m.ang_a))}")
    print(f"  B:     {fmt(math.degrees(m.ang_b))}")
    print(f"  Gamma: {fmt(math.degrees(m.ang_g))}")
    print(f"semi-perimeter: {fmt(m.s)}")
    print("area by five routes")
    for name, value in areas.items():
        print(f"  {name}: {fmt(value)}")
    return 0


def cmd_verify(args) -> int:
    t = load_triangle(args.spec)
    report = identity_report(t)
    if args.json:
        _emit_json(
            {
                "case": report.case.value,
                "tier": "stress" if report.stress else "main",
                "residuals": report.residuals,
                "tolerances": report.tolerances,
                "passed": report.passed,
                "first_failing": report.first_failing,
            }
        )
        return 0 if report.passed else 1
    ang_a = report.frame_metrics.ang_a
    print(f"case: {report.case.value} (angle A = {fmt(math.degrees(ang_a))} deg)")
    print(f"tier: {'stress (relaxed tolerances)' if report.stress else 'main'}")
    print("identity residuals")
    for name, value in report.residuals.items():
        tol = report.tolerances[name]
        verdict = "PASS" if value <= tol else "FAIL"
        print(f"  {name:<22} {fmt(value):>18}  (tol {fmt(tol)})  {verdict}")
    if report.passed:
        print("verdict: PASS")
        return 0
    print(f"verdict: FAIL (first failing identity: {report.first_failing})")
    return 1


def cmd_construct(args) -> int:
    t = load_triangle(args.spec)
    phi = math.radians(args.phi)
    d = construct(t, phi)
    disc = similarity_check(t, d)
    # Every value in the input's units first: one that does not fit binary64
    # stops the command before anything is written.
    ap, bp, gp = d.ap, d.bp, d.gp
    area_source, area_derived = d.metrics.area, d.area_derived
    if args.out:
        render_svg(d, args.out)
    if args.json:
        payload = {
            "phi_deg": args.phi,
            "case": d.case.value,
            "vertices": {
                "A_prime": [ap.x, ap.y],
                "B_prime": [bp.x, bp.y],
                "Gamma_prime": [gp.x, gp.y],
            },
            "area_source": area_source,
            "area_derived": area_derived,
            "ratio_geometric": d.ratio_geometric,
            "ratio_formula_sq_cot_sum": d.ratio_formula,
            "ratio_formula_applies": d.phi == 0.5 * math.pi,
            "similarity_discrepancies_rad": list(disc),
            "gamma_prime_coincides_with_b": d.gamma_prime_on_b,
        }
        if args.out:
            payload["svg"] = args.out
        _emit_json(payload)
        return 0
    print(f"phi: {fmt(args.phi)} deg   case: {d.case.value}")
    print("derived vertices")
    print(f"  A':     ({fmt(ap.x)}, {fmt(ap.y)})")
    print(f"  B':     ({fmt(bp.x)}, {fmt(bp.y)})")
    print(f"  Gamma': ({fmt(gp.x)}, {fmt(gp.y)})")
    if d.gamma_prime_on_b:
        print("  note: Gamma' coincides with B")
    print(f"area source:  {fmt(area_source)}")
    print(f"area derived: {fmt(area_derived)}")
    print(f"ratio (geometric): {fmt(d.ratio_geometric)}")
    if d.phi == 0.5 * math.pi:
        print(f"ratio (squared cot sum): {fmt(d.ratio_formula)}")
    else:
        print(
            f"ratio (squared cot sum): {fmt(d.ratio_formula)} "
            "[applies at phi = 90 deg only; not asserted here]"
        )
    print(
        "similarity discrepancies (rad): "
        f"{fmt(disc[0])} {fmt(disc[1])} {fmt(disc[2])}"
    )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _argmin_payload(result):
    idx = result.argmin_index
    if idx is None:
        return None
    corpus = result.corpus
    t = corpus.triangle(idx)
    return {
        "ang_b_deg": math.degrees(float(corpus.ang_b[idx])),
        "ang_gamma_deg": math.degrees(float(corpus.ang_g[idx])),
        "scale": float(corpus.scale[idx]),
        "vertices": {
            "A": [t.a.x, t.a.y],
            "B": [t.b.x, t.b.y],
            "Gamma": [t.g.x, t.g.y],
        },
        "cot_sum": result.min_cot_sum,
    }


def cmd_sweep(args) -> int:
    # Imported here: the sweep is the one command on arrays, and only it
    # should pay for numpy.
    from .sweep import run_sweep

    result = run_sweep(args.n, args.seed, stratum=args.stratum)
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "seed": args.seed,
                "stratum": args.stratum,
                "case_counts": result.case_counts,
                "max_residuals": result.max_residuals,
                "min_cot_sum_triangle": _argmin_payload(result),
            }
        )
        return 0
    print(f"sweep: n={args.n} seed={args.seed} stratum={args.stratum}")
    counts = result.case_counts
    print(
        f"cases: acute={counts['acute']} right={counts['right']} "
        f"obtuse={counts['obtuse']}"
    )
    if len(result) == 0:
        print("no samples")
        return 0
    print("max residuals")
    for key in CHECK_ORDER:
        print(f"  {key:<22} {fmt(result.max_residuals[key])}")
    argmin = _argmin_payload(result)
    print(f"min cot sum: {fmt(argmin['cot_sum'])}")
    print(
        "  at triangle: "
        f"B={fmt(argmin['ang_b_deg'])} deg "
        f"Gamma={fmt(argmin['ang_gamma_deg'])} deg "
        f"scale={fmt(argmin['scale'])}"
    )
    return 0


def cmd_minimize(args) -> int:
    if args.right:
        min_sq, ang = right_triangle_min()
        if args.json:
            _emit_json(
                {
                    "family": "right",
                    "min_ratio": min_sq,
                    "min_cot_sum": math.sqrt(min_sq),
                    "argmin_angles_deg": {
                        "A": 90.0,
                        "B": math.degrees(ang),
                        "Gamma": 90.0 - math.degrees(ang),
                    },
                }
            )
            return 0
        print("family: right triangles (angle A = 90 deg)")
        print(f"min derived-area ratio: {fmt(min_sq)}")
        print(f"min cot sum: {fmt(math.sqrt(min_sq))}")
        print(f"at B = Gamma = {fmt(math.degrees(ang))} deg")
        return 0

    min_sum, ang_b, ang_g = global_cot_sum_min()
    report = minimize_slice(1.0 / math.sqrt(3.0))
    if args.json:
        _emit_json(
            {
                "family": "all",
                "min_ratio": min_sum * min_sum,
                "min_cot_sum": min_sum,
                "argmin_angles_deg": {
                    "A": math.degrees(math.pi - ang_b - ang_g),
                    "B": math.degrees(ang_b),
                    "Gamma": math.degrees(ang_g),
                },
                "slice_check": {
                    "k": report.k,
                    "argmin": report.argmin,
                    "numeric_argmin": report.numeric_argmin,
                    "agreement_err": report.agreement_err,
                },
            }
        )
        return 0
    print("family: all triangles")
    print(f"min derived-area ratio: {fmt(min_sum * min_sum)}")
    print(f"min cot sum: {fmt(min_sum)}")
    print(f"at A = B = Gamma = {fmt(math.degrees(ang_b))} deg")
    print(
        "slice check at k = 1/sqrt(3): "
        f"argmin closed {fmt(report.argmin)} vs numeric {fmt(report.numeric_argmin)}, "
        f"value agreement {fmt(report.agreement_err)}"
    )
    return 0


def cmd_render(args) -> int:
    t = load_triangle(args.spec)
    d = construct(t, math.radians(args.phi))
    render_svg(d, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perptri",
        description=(
            "Derived triangles from rotated side lines: metrics, identity "
            "verification, extremal values, figures."
        ),
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An invalid option value raises ArgumentError, which main reports as bad input.
    def add_parser(name, help):
        return sub.add_parser(name, help=help, exit_on_error=False)

    def add_spec(p):
        p.add_argument(
            "spec",
            nargs="?",
            default=None,
            help="triangle specification JSON file ('-' or omitted for stdin)",
        )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = add_parser("metrics", help="sides, angles, and area by five routes")
    add_spec(p)
    add_json(p)
    p.set_defaults(func=cmd_metrics)

    p = add_parser("verify", help="check every identity residual for one triangle")
    add_spec(p)
    add_json(p)
    p.set_defaults(func=cmd_verify)

    p = add_parser("construct", help="build the derived triangle")
    add_spec(p)
    add_json(p)
    p.add_argument("--phi", type=float, default=90.0, help="rotation angle in degrees (default 90)")
    p.add_argument("--out", help="also write an SVG figure to this path")
    p.set_defaults(func=cmd_construct)

    p = add_parser("sweep", help="residual sweep over a seeded random corpus")
    add_json(p)
    p.add_argument("--n", type=non_negative_int, default=1000,
                   help="number of triangles (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--stratum", choices=STRATA, default="all", help="angle-A stratum")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("minimize", help="extremal values of the ratio")
    add_json(p)
    p.add_argument("--right", action="store_true", help="restrict to right triangles")
    p.set_defaults(func=cmd_minimize)

    p = add_parser("render", help="write an SVG figure of the construction")
    add_spec(p)
    p.add_argument("--phi", type=float, default=90.0, help="rotation angle in degrees (default 90)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ParseError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of the package, not of the input
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
