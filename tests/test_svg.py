"""SVG rendering: structure of the emitted document, not its aesthetics."""

import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri.cli import triangle_from_spec
from perptri.construction import construct
from perptri.geom import Point2, Triangle
from perptri.svg import svg_document


def test_document_structure(equilateral):
    doc = svg_document(construct(equilateral))
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert 'viewBox="' in doc
    assert doc.count('class="construction"') == 3
    assert doc.count('class="triangle-source"') == 1
    assert doc.count('class="triangle-derived"') == 1
    assert doc.count('class="vertex-label"') == 6
    assert doc.count('class="phi-arc"') == 1


def test_document_is_wellformed_xml(t345, equilateral, obtuse_iso):
    for t in (t345, equilateral, obtuse_iso):
        root = ET.fromstring(svg_document(construct(t)))
        assert root.tag.endswith("svg")


def test_right_case_merges_gamma_prime_label(t345, equilateral):
    right_doc = svg_document(construct(t345))
    assert "Γ′ = B" in right_doc
    acute_doc = svg_document(construct(equilateral))
    assert "Γ′ = B" not in acute_doc
    assert "Γ′" in acute_doc


def test_vertex_labels_present(obtuse_iso):
    doc = svg_document(construct(obtuse_iso))
    for label in (">A<", ">B<", ">Γ<", ">A′<", ">B′<", ">Γ′<"):
        assert label in doc


def source_path(doc):
    return next(line for line in doc.splitlines() if 'class="triangle-source"' in line)


def test_y_axis_is_flipped(equilateral):
    # Gamma sits at height +sqrt(3)/2, +sqrt(3)/4 in the frame (exp = 1);
    # with the y-flip its rendered coordinate is negative.
    assert "-0.433013" in source_path(svg_document(construct(equilateral)))


def test_viewbox_covers_all_vertices(obtuse_iso):
    d = construct(obtuse_iso)
    root = ET.fromstring(svg_document(d))
    x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
    # Drawn in the frame: A at the origin, B and Gamma from the frame, A'B'Gamma' relative to A.
    _, bx, by, gx, gy = d.source.frame
    derived = [(p.x, p.y) for p in (d.ap_rel, d.bp_rel, d.gp_rel)]
    for x, y in [(0.0, 0.0), (bx, by), (gx, gy), *derived]:
        assert x0 <= x <= x0 + w
        assert y0 <= -y <= y0 + h


def test_phi_arc_turns_ab_by_phi_where_ab_is_not_horizontal():
    # A 3-4-5 with AB along (0.6, 0.8): the arc starts r from B along AB
    # and ends r from B along AB turned by phi, in the flipped frame.
    t = Triangle(Point2(0.0, 0.0), Point2(3.0, 4.0), Point2(-4.0, 3.0))
    phi = math.radians(60.0)
    root = ET.fromstring(svg_document(construct(t, phi)))
    arc = next(el for el in root if el.attrib.get("class") == "phi-arc")
    _, sx, sy, _, r, _, _, _, _, ex, ey = arc.attrib["d"].split()
    r, bx, by = float(r), *t.frame[1:3]
    ux, uy = 0.6, 0.8
    vx, vy = math.cos(phi) * ux - math.sin(phi) * uy, math.sin(phi) * ux + math.cos(phi) * uy
    assert (float(sx), -float(sy)) == pytest.approx((bx + r * ux, by + r * uy), abs=1e-5)
    assert (float(ex), -float(ey)) == pytest.approx((bx + r * vx, by + r * vy), abs=1e-5)


# A dyadic triangle: its coordinates, moved by integers up to 2**40 and scaled
# by 2**k, stay exact in binary64.
DYADIC = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3125, 0.8125))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(-500, 500), ox=st.integers(-2**40, 2**40), oy=st.integers(-2**40, 2**40),
       phi_deg=st.sampled_from([90.0, 60.0, 37.5]))
def test_figure_depends_only_on_the_shape(k, ox, oy, phi_deg):
    # Drawn in the triangle's frame, an exactly translated or 2**k-scaled
    # copy gives the same bytes.
    phi = math.radians(phi_deg)
    copy = Triangle(*(Point2(math.ldexp(p.x + ox, k), math.ldexp(p.y + oy, k))
                      for p in DYADIC))
    assert svg_document(construct(copy, phi)) == svg_document(construct(Triangle(*DYADIC), phi))


def test_offset_triangle_draws_its_copy_at_the_origin():
    far = triangle_from_spec({"vertices": {"A": [100000, 100000], "B": [100001, 100000],
                                           "Gamma": [100000.3, 100000.8]}})
    near = triangle_from_spec({"vertices": {"A": [0, 0], "B": [1, 0], "Gamma": [0.3, 0.8]}})
    path = source_path(svg_document(construct(far)))
    assert path == source_path(svg_document(construct(near)))
    assert path == '<path class="triangle-source" d="M 0 0 L 0.5 0 L 0.15 -0.4 Z"/>'
