"""Walk the identity chain behind E'/E = (cot A + cot B + cot Gamma)^2.

Each link is verified separately, against one bound C eps / theta**2 set by
the triangle's smallest angle theta, so a numerical failure would name
the first broken link rather than just "the ratio is off":

    E' = E + (gamma^2 cot A + beta^2 cot Gamma + alpha^2 cot B) / 2
    16 E^2 + 8 E (...) - (alpha^2 + beta^2 + gamma^2)^2 = 0
    three cot-elimination identities, the square expansion, and the
    memberwise sum that telescopes them back together.
"""

from perptri.geom import Point2, Triangle, metrics
from perptri.ratio import identity_report
from perptri.sampling import sample_corpus


def show(name: str, t: Triangle) -> None:
    report = identity_report(t)
    m = metrics(t)
    print(f"{name}: case {report.case}, smallest angle {report.smallest_angle:.4g} rad, "
          f"bound C eps/theta^2 = {report.bound:.2e}")
    print(f"    sides {m.alpha:.6g} / {m.beta:.6g} / {m.gamma:.6g}, area {m.area:.6g}")
    for key, value in report.residuals.items():
        flag = "ok" if report.within[key] else "FAIL"
        print(f"    {key:<22} {value:12.3e}  {flag}")
    print(f"    verdict: {'PASS' if report.passed else 'FAIL: ' + report.first_failing}")
    print()


def main() -> None:
    show("right 3-4-5", Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3)))

    corpus = sample_corpus(5, seed=2024)
    for i in range(corpus.ang_b.size):
        show(f"random triangle #{i}", corpus.triangle(i))


if __name__ == "__main__":
    main()
