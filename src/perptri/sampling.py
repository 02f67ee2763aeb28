"""Seeded random triangle corpora.

Base angles (B, Gamma) are drawn uniformly from the open simplex
{B > delta, Gamma > delta, B + Gamma < pi - delta} and the overall size from
a log-uniform scale over four decades.  Triangles are laid out canonically --
A at the origin, B at (scale, 0), Gamma above the x-axis -- so a fixed seed
reproduces every corpus coordinate-for-coordinate.

Strata select by the classification of angle A (acute / right / obtuse); the
"all" stratum is the raw simplex draw.  B or Gamma may themselves be obtuse
inside the acute-A stratum -- that is deliberate, the identities are claimed
and checked for every labeling, not just the convenient one.

Only the corpus code imports numpy, when it runs; `STRATA` and
`triangle_from_angles` serve the scalar commands without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import AngleSumError
from .geom import Point2, Triangle

if TYPE_CHECKING:
    import numpy as np

#: Main-tier sliver floor (radians): no sampled angle sits closer than this
#: to 0, and A stays below pi minus this.
DELTA_MAIN = 0.01

#: Stress-tier floor; residuals on such slivers are judged at the relaxed
#: tolerance (see ratio.STRESS_TOLERANCE).
DELTA_STRESS = 1e-4

#: Scale is 10**uniform(low, high): four decades centered on 1.
SCALE_DECADES = (-2.0, 2.0)

STRATA = ("all", "acute", "right", "obtuse")


def triangle_from_angles(ang_b: float, ang_g: float, scale: float) -> Triangle:
    """Triangle with base angles B, Gamma and |AB| = scale, A at the origin.

    The Gamma vertex sits at distance scale*sin(B)/sin(Gamma) from A along
    the ray at angle A above the x-axis (Law of Sines); the layout is always
    counterclockwise.
    """
    if not (0.0 < ang_b and 0.0 < ang_g and ang_b + ang_g < math.pi):
        raise AngleSumError(
            f"base angles ({ang_b!r}, {ang_g!r}) do not leave room for angle A"
        )
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    ang_a = math.pi - ang_b - ang_g
    beta = scale * math.sin(ang_b) / math.sin(ang_g)
    return Triangle(
        Point2(0.0, 0.0),
        Point2(scale, 0.0),
        Point2(beta * math.cos(ang_a), beta * math.sin(ang_a)),
    )


@dataclass(frozen=True)
class TriangleCorpus:
    """A vectorized batch of triangles: base angles plus scale, canonical layout."""

    ang_b: np.ndarray
    ang_g: np.ndarray
    scale: np.ndarray

    def __len__(self) -> int:
        return int(self.ang_b.size)

    @property
    def ang_a(self) -> np.ndarray:
        return math.pi - self.ang_b - self.ang_g

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bx, gx, gy): A is at the origin, B at (bx, 0), Gamma at (gx, gy)."""
        import numpy as np

        ang_a = self.ang_a
        beta = self.scale * np.sin(self.ang_b) / np.sin(self.ang_g)
        return self.scale, beta * np.cos(ang_a), beta * np.sin(ang_a)

    def triangle(self, i: int) -> Triangle:
        return triangle_from_angles(
            float(self.ang_b[i]), float(self.ang_g[i]), float(self.scale[i])
        )


def concat_corpora(*parts: TriangleCorpus) -> TriangleCorpus:
    import numpy as np

    return TriangleCorpus(
        ang_b=np.concatenate([p.ang_b for p in parts]),
        ang_g=np.concatenate([p.ang_g for p in parts]),
        scale=np.concatenate([p.scale for p in parts]),
    )


def _simplex_pairs(rng: np.random.Generator, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """n uniform points of the open angle simplex, by the fold trick."""
    span = math.pi - 3.0 * delta
    u = rng.uniform(0.0, span, n)
    v = rng.uniform(0.0, span, n)
    over = u + v > span
    u[over] = span - u[over]
    v[over] = span - v[over]
    return delta + u, delta + v


def sample_corpus(
    n: int,
    seed,
    stratum: str = "all",
    delta: float = DELTA_MAIN,
) -> TriangleCorpus:
    """Draw n triangles, deterministic for a fixed (n, seed, stratum, delta).

    seed is anything numpy's default_rng accepts (an int, or a sequence of
    ints for derived sub-corpora).  The scale stream is drawn before the
    angle stream so stratum rejection never shifts it.
    """
    if n < 0:
        raise ValueError(f"n must be a non-negative number of triangles, got {n}")
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}; expected one of {STRATA}")
    import numpy as np

    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(*SCALE_DECADES, n)

    if stratum == "right":
        ang_b = rng.uniform(delta, 0.5 * math.pi - delta, n)
        ang_g = 0.5 * math.pi - ang_b
        return TriangleCorpus(ang_b=ang_b, ang_g=ang_g, scale=scale)

    ang_b, ang_g = _simplex_pairs(rng, n, delta)
    if stratum != "all":
        want_acute = stratum == "acute"
        while True:
            ang_a = math.pi - ang_b - ang_g
            wrong = (ang_a < 0.5 * math.pi) != want_acute
            count = int(np.count_nonzero(wrong))
            if count == 0:
                break
            ang_b[wrong], ang_g[wrong] = _simplex_pairs(rng, count, delta)
    return TriangleCorpus(ang_b=ang_b, ang_g=ang_g, scale=scale)
