"""Command-line interface.

Subcommands: metrics, verify, construct, sweep, minimize, render.  Triangle
input is a single JSON document (file path argument, or stdin when the
argument is "-" or omitted) in exactly one of three forms:

    {"vertices": {"A": [x, y], "B": [x, y], "Gamma": [x, y]}}
    {"sides":    {"alpha": a, "beta": b, "gamma": c}}
    {"angles":   {"B_deg": b, "Gamma_deg": g, "scale": s}}

`FORMS` holds each form's keys, value reader and layout, so each rule of a spec
is checked once.  `sampling` lays sides and angles out, A at the origin and B at
(gamma, 0) or (scale, 0), and refuses a layout binary64 cannot hold.
Angles are degrees at this boundary only.  `render` is the one command that
writes a figure, drawn in the triangle's frame (`svg`).

Each command builds one payload, a dict, and one exit code, and prints
nothing itself.  `main` prints the payload: as strict JSON under --json
(NaN and inf as null; every command but `render` takes it), or otherwise
through the command's text renderer, which reads only the payload.  So the
text and the JSON report the same values, and a command that exits 2 or 3
prints nothing on stdout.  Exit codes: 0 success, 1 verification failure,
2 bad input (a ParseError or a GeometryError: a bad specification, a
triangle or value binary64 cannot take, or any command-line mistake,
reported as one `error:` line), 3 internal error (any other exception,
reported on one line), 130 interrupted (SIGINT, one `error:` line) and 141
stdout closed by its reader (as for SIGPIPE, silently).  The text formats every
float to 12 significant digits (`fmt`), so identical invocations are
byte-identical.

A command imports the modules only it runs (`construction`, `extremal`, `svg`,
`sweep` and, through the sweep, numpy) inside its function, so `verify` and
`metrics` load none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import GeometryError, ParseError
from .geom import MATH, Point2, Triangle, in_units, metrics
from .ratio import (
    BOUND_CONSTANT,
    area_routes,
    cot_sum,
    identity_report,
    judged_bound,
    side_squares,
)
from .sampling import STRATA, triangle_from_angles, triangle_from_sides


def fmt(value: float) -> str:
    """Fixed 12-significant-digit rendering; normalizes negative zero."""
    return f"{value + 0.0:.12g}"


def _as_number(value, *name) -> float:
    """value as a finite float; its messages name it by the parts of name, joined."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{''.join(name)} must be a number")
    try:
        result = float(value)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    if not math.isfinite(result):
        raise ParseError(f"{''.join(name)} must be finite")
    return result


def non_negative_int(text: str) -> int:
    """The value of --seed, and of --n before `sweep_count`: a non-negative integer.

    The message names no option: argparse puts "argument --seed: " before it.
    """
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


#: A sweep's peak bytes per sampled triangle (the acute and obtuse strata's draw).
SWEEP_BYTES_PER_TRIANGLE = 46


def sweep_count(text: str) -> int:
    """The value of --n: a non-negative count whose sweep fits physical memory (os.sysconf)."""
    n = non_negative_int(text)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = sys.maxsize
    need = n * SWEEP_BYTES_PER_TRIANGLE
    if need > memory:
        raise argparse.ArgumentTypeError(
            f"a sweep of {n} triangles needs {need} bytes ({SWEEP_BYTES_PER_TRIANGLE} per "
            f"triangle), more than the {memory} bytes of physical memory")
    return n


def _as_point(value, name: str) -> Point2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{name} must be a [x, y] pair")
    return Point2(_as_number(value[0], name, "[0]"), _as_number(value[1], name, "[1]"))


def _triangle_from_degrees(b_deg: float, g_deg: float, scale: float) -> Triangle:
    if not (b_deg > 0.0 and g_deg > 0.0 and b_deg + g_deg < 180.0):
        raise ParseError("angles must be positive with B_deg + Gamma_deg < 180")
    return triangle_from_angles(math.radians(b_deg), math.radians(g_deg), scale)


#: The forms of a specification: each one's keys, in the order its builder
#: takes their values, the reader of one value, and the builder.
FORMS = {
    "vertices": (("A", "B", "Gamma"), _as_point, Triangle),
    "sides": (("alpha", "beta", "gamma"), _as_number, triangle_from_sides),
    "angles": (("B_deg", "Gamma_deg", "scale"), _as_number, _triangle_from_degrees),
}


def triangle_from_spec(doc) -> Triangle:
    """Build a Triangle from a parsed specification document, in one of the `FORMS`."""
    if not isinstance(doc, dict):
        raise ParseError("specification must be a JSON object")
    if len(FORMS.keys() & doc.keys()) != 1:
        raise ParseError(f"specification needs exactly one of: {', '.join(FORMS)}")
    if len(doc) != 1:
        raise ParseError(f"unknown keys in specification: {sorted(set(doc) - set(FORMS))}")
    (form, body), = doc.items()
    keys, read, build = FORMS[form]
    if not isinstance(body, dict):
        raise ParseError(f"{form} must be a JSON object")
    if body.keys() != set(keys):
        raise ParseError(f"{form} must contain exactly {', '.join(map(json.dumps, keys))}")
    return build(*[read(body[key], key) for key in keys])


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
    # RFC 8259 has no NaN or inf: print them as null.  Finite floats round-trip exactly.
    strict = json.loads(json.dumps(payload), parse_constant=lambda name: None)
    print(json.dumps(strict, indent=2, allow_nan=False))


def cmd_metrics(args):
    t = load_triangle(args.spec)
    fm = t.frame_metrics
    judged_bound(fm)
    m = metrics(t)
    routes = area_routes(MATH, fm, side_squares(fm), cot_sum(MATH, fm), math.sin(fm.ang_a))
    areas = {name: in_units(value, 2 * t.frame.exp, f"area ({name})")
             for name, value in routes.items()}
    return {
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
    }, 0


def _metrics_text(p):
    yield "sides"
    yield f"  alpha (|B Gamma|): {fmt(p['alpha'])}"
    yield f"  beta  (|Gamma A|): {fmt(p['beta'])}"
    yield f"  gamma (|A B|):     {fmt(p['gamma'])}"
    yield "angles (degrees)"
    for name, value in p["angles_deg"].items():
        yield f"  {name + ':':<6} {fmt(value)}"
    yield f"semi-perimeter: {fmt(p['semi_perimeter'])}"
    yield "area by five routes"
    for name, value in p["areas"].items():
        yield f"  {name}: {fmt(value)}"


def cmd_verify(args):
    t = load_triangle(args.spec)
    report = identity_report(t)
    return {
        "case": report.case.value,
        "smallest_angle_rad": report.smallest_angle,
        "residuals": report.residuals,
        "bound": report.bound,
        "passed": report.passed,
        "first_failing": report.first_failing,
        "angle_a_deg": math.degrees(t.frame_metrics.ang_a),
        "within": report.within,
        "bound_constant": BOUND_CONSTANT,
    }, 0 if report.passed else 1


def _verify_text(p):
    yield f"case: {p['case']} (angle A = {fmt(p['angle_a_deg'])} deg)"
    yield f"smallest angle theta: {fmt(p['smallest_angle_rad'])} rad"
    yield f"bound: {fmt(p['bound_constant'])} eps/theta^2 = {fmt(p['bound'])}"
    yield "identity residuals"
    for name, value in p["residuals"].items():
        yield f"  {name:<22} {fmt(value):>18}  {'PASS' if p['within'][name] else 'FAIL'}"
    if p["passed"]:
        yield "verdict: PASS"
    else:
        yield f"verdict: FAIL (first failing identity: {p['first_failing']})"


def cmd_construct(args):
    from .construction import construct, similarity_check

    t = load_triangle(args.spec)
    d = construct(t, math.radians(args.phi))
    disc = similarity_check(t, d)
    ap, bp, gp = d.ap, d.bp, d.gp
    return {
        "phi_deg": args.phi,
        "case": d.case.value,
        "vertices": {"A_prime": [ap.x, ap.y], "B_prime": [bp.x, bp.y], "Gamma_prime": [gp.x, gp.y]},
        "area_source": metrics(t).area,
        "area_derived": d.area_derived,
        "ratio_geometric": d.ratio_geometric,
        "ratio_formula_sq_cot_sum": d.ratio_formula,
        "ratio_formula_applies": d.phi == 0.5 * math.pi,
        "similarity_discrepancies_rad": list(disc),
        "gamma_prime_coincides_with_b": d.gamma_prime_on_b,
    }, 0


def _construct_text(p):
    yield f"phi: {fmt(p['phi_deg'])} deg   case: {p['case']}"
    yield "derived vertices"
    for name, (x, y) in zip(("A'", "B'", "Gamma'"), p["vertices"].values()):
        yield f"  {name + ':':<7} ({fmt(x)}, {fmt(y)})"
    if p["gamma_prime_coincides_with_b"]:
        yield "  note: Gamma' coincides with B"
    yield f"area source:  {fmt(p['area_source'])}"
    yield f"area derived: {fmt(p['area_derived'])}"
    yield f"ratio (geometric): {fmt(p['ratio_geometric'])}"
    yield f"ratio (squared cot sum): {fmt(p['ratio_formula_sq_cot_sum'])}" + (
        "" if p["ratio_formula_applies"] else " [applies at phi = 90 deg only; not asserted here]")
    yield f"similarity discrepancies (rad): {' '.join(map(fmt, p['similarity_discrepancies_rad']))}"


def cmd_sweep(args):
    from .sweep import run_sweep

    result = run_sweep(args.n, args.seed, stratum=args.stratum)
    argmin = None
    if result.argmin_row is not None:
        ang_b, ang_g, scale = result.argmin_row
        t = triangle_from_angles(ang_b, ang_g, scale)
        argmin = {
            "ang_b_deg": math.degrees(ang_b),
            "ang_gamma_deg": math.degrees(ang_g),
            "scale": scale,
            "vertices": {"A": [t.a.x, t.a.y], "B": [t.b.x, t.b.y], "Gamma": [t.g.x, t.g.y]},
            "cot_sum": result.min_cot_sum,
        }
    return {
        "n": args.n,
        "seed": args.seed,
        "stratum": args.stratum,
        "case_counts": result.case_counts,
        "max_residuals": result.max_residuals,
        "min_cot_sum_triangle": argmin,
        "over_bound": result.over_bound,
        "bound_constant": BOUND_CONSTANT,
    }, 1 if result.over_bound else 0


def _sweep_text(p):
    yield f"sweep: n={p['n']} seed={p['seed']} stratum={p['stratum']}"
    yield "cases: " + " ".join(f"{case}={count}" for case, count in p["case_counts"].items())
    argmin = p["min_cot_sum_triangle"]
    if argmin is None:
        yield "no samples"
        return
    yield "max residuals"
    for name, value in p["max_residuals"].items():
        yield f"  {name:<22} {fmt(value)}"
    yield f"over the bound {fmt(p['bound_constant'])} eps/theta^2: {p['over_bound']}"
    yield f"min cot sum: {fmt(argmin['cot_sum'])}"
    yield (f"  at triangle: B={fmt(argmin['ang_b_deg'])} deg "
           f"Gamma={fmt(argmin['ang_gamma_deg'])} deg scale={fmt(argmin['scale'])}")


def cmd_minimize(args):
    from .extremal import global_cot_sum_min, minimize_slice, right_triangle_min

    if args.right:
        min_sq, ang = right_triangle_min()
        return {
            "family": "right",
            "min_ratio": min_sq,
            "min_cot_sum": math.sqrt(min_sq),
            "argmin_angles_deg": {"A": 90.0, "B": math.degrees(ang),
                                  "Gamma": 90.0 - math.degrees(ang)},
        }, 0
    min_sum, ang_b, ang_g = global_cot_sum_min()
    report = minimize_slice(1.0 / math.sqrt(3.0))
    return {
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
    }, 0


def _minimize_text(p):
    right = p["family"] == "right"
    yield "family: right triangles (angle A = 90 deg)" if right else "family: all triangles"
    yield f"min derived-area ratio: {fmt(p['min_ratio'])}"
    yield f"min cot sum: {fmt(p['min_cot_sum'])}"
    at = fmt(p["argmin_angles_deg"]["B"])
    if right:
        yield f"at B = Gamma = {at} deg"
        return
    yield f"at A = B = Gamma = {at} deg"
    check = p["slice_check"]
    yield (f"slice check at k = 1/sqrt(3): argmin closed {fmt(check['argmin'])} vs numeric "
           f"{fmt(check['numeric_argmin'])}, value agreement {fmt(check['agreement_err'])}")


def cmd_render(args):
    from .construction import construct
    from .svg import render_svg

    t = load_triangle(args.spec)
    render_svg(construct(t, math.radians(args.phi)), args.out)
    return {"out": args.out}, 0


def _render_text(p):
    yield f"wrote {p['out']}"


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose every command-line mistake raises ParseError.

    main reports it on one line and returns 2, where argparse would print its
    usage and exit.  Subparsers are made of the same class.
    """

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="perptri",
        description=(
            "Derived triangles from rotated side lines: metrics, identity "
            "verification, extremal values, figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument(
            "spec",
            nargs="?",
            default=None,
            help="triangle specification JSON file ('-' or omitted for stdin)",
        )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("metrics", help="sides, angles, and area by five routes")
    add_spec(p)
    add_json(p)
    p.set_defaults(func=cmd_metrics, text=_metrics_text)

    p = sub.add_parser("verify", help="check every identity residual for one triangle")
    add_spec(p)
    add_json(p)
    p.set_defaults(func=cmd_verify, text=_verify_text)

    p = sub.add_parser("construct", help="build the derived triangle")
    add_spec(p)
    add_json(p)
    p.add_argument("--phi", type=float, default=90.0, help="rotation angle in degrees (default 90)")
    p.set_defaults(func=cmd_construct, text=_construct_text)

    p = sub.add_parser("sweep", help="residual sweep over a seeded random corpus")
    add_json(p)
    p.add_argument("--n", type=sweep_count, default=1000,
                   help="number of triangles (default 1000)")
    p.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed (default 0)")
    p.add_argument("--stratum", choices=STRATA, default="all", help="angle-A stratum")
    p.set_defaults(func=cmd_sweep, text=_sweep_text)

    p = sub.add_parser("minimize", help="extremal values of the ratio")
    add_json(p)
    p.add_argument("--right", action="store_true", help="restrict to right triangles")
    p.set_defaults(func=cmd_minimize, text=_minimize_text)

    p = sub.add_parser("render", help="write an SVG figure of the construction")
    add_spec(p)
    p.add_argument("--phi", type=float, default=90.0, help="rotation angle in degrees (default 90)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render, text=_render_text, json=False)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        if args.json:
            _emit_json(payload)
        else:
            for line in args.text(payload):
                print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush at
        # exit raises nothing, and exit as a process killed by SIGPIPE would.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        return 141
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except (ParseError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of the package, not of the input
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
