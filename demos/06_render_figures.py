"""Render the construction as SVG figures, one per qualitative case.

Writes acute.svg, right.svg, obtuse.svg (and a partial-rotation variant)
into ./figures.  The source triangle is filled, the derived one outlined,
the rotated side lines dashed; in the right-A figure the Gamma' label
reads "Gamma' = B" because the two points coincide.
"""

import math
from pathlib import Path

from perptri.construction import construct
from perptri.geom import Point2, Triangle
from perptri.svg import render_svg

OUT_DIR = Path(__file__).resolve().parent / "figures"

FIGURES = {
    "acute": Triangle(Point2(0, 0), Point2(1, 0), Point2(0.5, math.sqrt(3) / 2)),
    "right": Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3)),
    "obtuse": Triangle(Point2(0, 0), Point2(1, 0), Point2(-0.5, math.sqrt(3) / 2)),
}


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for name, t in FIGURES.items():
        path = OUT_DIR / f"{name}.svg"
        render_svg(construct(t), path)
        print(f"wrote {path}")

    path = OUT_DIR / "right_phi60.svg"
    render_svg(construct(FIGURES["right"], math.radians(60)), path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
