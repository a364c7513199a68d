"""Cross-cutting properties: presentation gauge invariance and rejection
of geometrically impossible plans."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from spineforge.core import validate_polyhedron
from spineforge.errors import PlanError, SpineForgeError
from spineforge.gallery import (RoundCircle, RoundSpec, build_surgered_example,
                                round_reeb)
from spineforge.subsurfaces import find_closed_surfaces
from spineforge.surgery import (ImageRoute, PlanCircle, PlanEvent,
                                PlanSegment, SurfacePatch, SurgeryPlan,
                                attach_surface, check_attachment_hypotheses)


def flip_sheet(poly, sheet_id):
    sheets = []
    for sheet in poly.sheets:
        if sheet.id != sheet_id:
            sheets.append(sheet)
            continue
        circuits = tuple(tuple(t.reversed() for t in reversed(c))
                         for c in sheet.circuits)
        sheets.append(replace(sheet, circuits=circuits))
    return replace(poly, sheets=tuple(sheets))


def flip_closed_arc(poly, arc_id):
    sheets = []
    for sheet in poly.sheets:
        circuits = tuple(
            tuple(replace(t, direction=-t.direction) if t.arc == arc_id else t
                  for t in circuit)
            for circuit in sheet.circuits)
        sheets.append(replace(sheet, circuits=circuits))
    return replace(poly, sheets=tuple(sheets))


def test_orientability_is_gauge_invariant(rng):
    base = build_surgered_example().polyhedron
    reference = {s.sheets: s.orientable
                 for s in find_closed_surfaces(base, 10 ** 6).selections}
    closed_arcs = [a.id for a in base.arcs if a.closed]
    poly = base
    for _ in range(8):
        if rng.random() < 0.5:
            poly = flip_sheet(poly, rng.choice(poly.sheets).id)
        else:
            poly = flip_closed_arc(poly, rng.choice(closed_arcs))
        assert validate_polyhedron(poly).ok
        got = {s.sheets: s.orientable
               for s in find_closed_surfaces(poly, 10 ** 6).selections}
        assert got == reference


def test_odd_crossing_parity_is_rejected():
    # a circle crossing one triple circle exactly once and another exactly
    # once cannot close up in the plane; the pipeline must refuse it
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("triple", 1, 2, pos=0, radius=2),
        RoundCircle("boundary", 2, 1, pos=0, radius=3),
        RoundCircle("boundary", 1, 0, pos=0, radius=4)), name="four"))
    poly = base.polyhedron
    # find the sheet wings to write a typed, but impossible, itinerary
    w1 = poly._wings["c1"]
    w2 = poly._wings["c2"]
    shared = [s for s in range(3) if w1[s][0] in {w2[t][0] for t in range(3)}]
    circle = PlanCircle(
        id="bad",
        segments=(PlanSegment(sheet=w1[0][0], side_genus=0, side_circuits=()),
                  PlanSegment(sheet=w1[2][0], side_genus=0, side_circuits=())),
        events=(PlanEvent("c1", Fraction(1, 2), slot_in=0, slot_out=2),
                PlanEvent("c2", Fraction(1, 2), slot_in=0, slot_out=2)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 2)),
                                    ("e_c2", Fraction(1, 2))),
                         runs=(("r1", "right"), ("r0", None))))
    plan = SurgeryPlan(base=base, circles=(circle,),
                       patch=SurfacePatch(True, 0, 1, id="cap"))
    report = check_attachment_hypotheses(plan)
    if report.ok:
        with pytest.raises(SpineForgeError):
            attach_surface(plan)
    else:
        assert report.violations
