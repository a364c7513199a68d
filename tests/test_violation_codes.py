"""Every violation code of the three validators, one broken value each.

Each case turns a valid value into one that breaks one rule, with
`dataclasses.replace`.  The validator must report the rule's code (other
codes may come with it) and must not raise.  The surgery-plan cases also
check what `attach_surface` or `normalized_plan` raises.
"""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest

from spineforge.arrangement import Face, validate_arrangement
from spineforge.bornmap import validate_born_map
from spineforge.core import (SWAP, EndRoles, SheetSpec, WingTraversal,
                             validate_polyhedron)
from spineforge.errors import InvalidArrangement, PlanError
from spineforge.gallery import (build_sphere_fixture, build_theta, klein_plan,
                                relocation_plan)
from spineforge.surgery import (PlanCircle, PlanEvent, PlanSegment,
                                attach_surface, check_attachment_hypotheses,
                                normalized_plan)

from conftest import empty_arrangement
from test_surgery import crossing_plan_on_two_circles


@cache
def crossed():
    """A two-circle round map crossed twice by a surgery circle: two
    vertices over two crossings of the branch curves."""
    born = attach_surface(crossing_plan_on_two_circles())
    assert validate_born_map(born).ok
    return born


def changed(items, key, **changes):
    """`items` with the one whose id is `key` replaced by a changed copy."""
    assert key in {item.id for item in items}
    return tuple(replace(item, **changes) if item.id == key else item
                 for item in items)


def poly_with(part, key, **changes):
    poly = crossed().polyhedron
    return replace(poly, **{part: changed(getattr(poly, part), key, **changes)})


def arr_with(part, key, **changes):
    arr = crossed().arrangement
    return replace(arr, **{part: changed(getattr(arr, part), key, **changes)})


def circuit_plus(sheet, *travs):
    """A sheet of the crossed map with one more circuit."""
    old = crossed().polyhedron.sheet(sheet).circuits
    return poly_with("sheets", sheet,
                     circuits=old + (tuple(WingTraversal(*t) for t in travs),))


def vertex_ends(port, end):
    ends = list(crossed().polyhedron.vertex("v_xa_0").ends)
    ends[port] = end
    return poly_with("vertices", "v_xa_0", ends=tuple(ends))


def swapped_theta():
    """Theta with swap monodromy: slots 1 and 2 bound one disk."""
    theta = build_theta()
    w1 = replace(theta.sheet("w1"), circuits=((WingTraversal("c0", 1, 1),
                                               WingTraversal("c0", 2, 1)),))
    return replace(theta, arcs=(replace(theta.arcs[0], monodromy=SWAP),),
                   sheets=(theta.sheet("w0"), w1))


def born_with(**changes):
    return replace(crossed(), **changes)


def assigned(key, **changes):
    assignments = dict(crossed().assignments)
    assignments[key] = replace(assignments[key], **changes)
    return born_with(assignments=assignments)


POLYHEDRON_CASES = {
    "DuplicateId": lambda: replace(crossed().polyhedron,
                                   sheets=crossed().polyhedron.sheets * 2),
    "NegativeGenus": lambda: poly_with("sheets", "s1", genus=-1),
    "NonOrientableGenus": lambda: poly_with("sheets", "s1", orientable=False),
    "ArcKind": lambda: poly_with("arcs", "c2", kind="loop"),
    "SwapPlacement": lambda: poly_with("arcs", "c2", monodromy=SWAP),
    "Monodromy": lambda: poly_with("arcs", "c2", monodromy="twist"),
    "BoundaryArcOpen": lambda: poly_with(
        "arcs", "c2", endpoints=(("v_xa_0", 0), ("v_xa_1", 0))),
    "UnknownVertex": lambda: poly_with(
        "arcs", "c1.0", endpoints=(("nowhere", 2), ("v_xa_1", 0))),
    "PortRange": lambda: poly_with(
        "arcs", "c1.0", endpoints=(("v_xa_0", 7), ("v_xa_1", 0))),
    "StrandMismatch:end 0 vs v_xa_0:0": lambda: poly_with(
        "arcs", "c1.0", endpoints=(("v_xa_0", 0), ("v_xa_1", 0))),
    "StrandMismatch:c2 is closed": lambda: vertex_ends(0, ("c2", 0)),
    "StrandMismatch:port 0 vs c1.0 end 0": lambda: vertex_ends(0, ("c1.0", 0)),
    "StrandMismatch:port 0 vs c1.1 end 5": lambda: vertex_ends(0, ("c1.1", 5)),
    "VertexShape": lambda: poly_with(
        "vertices", "v_xa_0",
        ends=crossed().polyhedron.vertex("v_xa_0").ends[:3]),
    "UnknownArc": lambda: vertex_ends(0, ("zz", 1)),
    "VertexEndKind": lambda: vertex_ends(0, ("c2", 0)),
    "ArcEndReused": lambda: vertex_ends(1, ("c1.1", 1)),
    "VertexRoles": lambda: poly_with(
        "vertices", "v_xa_0",
        roles=(EndRoles(0, 0, 1),) + crossed().polyhedron.vertex("v_xa_0").roles[1:]),
    "EmptyCircuit": lambda: circuit_plus("s1"),
    "CircuitRef:unknown arc zz": lambda: circuit_plus("s1", ("zz", 0, 1)),
    "CircuitRef:arc c2 slot 5": lambda: circuit_plus("s1", ("c2", 5, 1)),
    "CircuitRef:direction": lambda: circuit_plus("s1", ("c2", 0, 0)),
    "SlotDoubleFilled": lambda: circuit_plus("p", ("c1.0", 1, 1)),
    "CircuitContinuity": lambda: poly_with(
        "sheets", "s1", circuits=((WingTraversal("c1.0", 1, 1),
                                   WingTraversal("c1.1", 1, -1)),)),
}

ARRANGEMENT_CASES = {
    "DuplicateId": lambda: replace(crossed().arrangement,
                                   faces=crossed().arrangement.faces * 2),
    "NotFourValent:repeated ray": lambda: arr_with(
        "crossings", "x_5",
        order=(("e_4", 1), ("e_4", 1), ("e_3", 0), ("e_2", 1))),
    "DanglingEdge:zz": lambda: arr_with(
        "crossings", "x_5",
        order=(("zz", 1), ("e_1", 0), ("e_3", 0), ("e_2", 1))),
    "DanglingEdge:e_1:0 backref": lambda: arr_with(
        "crossings", "x_5",
        order=(("e_1", 0), ("e_3", 0), ("e_2", 1), ("e_4", 1))),
    "DanglingEdge:e_4:5 backref": lambda: arr_with(
        "crossings", "x_5",
        order=(("e_4", 5), ("e_1", 0), ("e_3", 0), ("e_2", 1))),
    "DanglingEdge:x_99": lambda: arr_with(
        "edges", "e_1", ends=(("x_99", 1), ("x_6", 1))),
    "UnknownCurve": lambda: arr_with("edges", "e_c2", curve="zz"),
    "UnknownFace": lambda: arr_with("edges", "e_c2", left="zz"),
    "EmptyCurve": lambda: arr_with("curves", "im_c2", edges=()),
    "CurveMembership:unknown edge zz": lambda: arr_with(
        "curves", "im_c2", edges=("e_c2", "zz")),
    "CurveMembership:e_c2": lambda: arr_with(
        "curves", "im_c1", edges=("e_3", "e_4", "e_c2")),
    "CurveChain:e_c2": lambda: arr_with("curves", "im_c2",
                                         edges=("e_c2", "e_c2")),
    "CurveChain:not a strand": lambda: arr_with(
        "curves", "im_c1", edges=("e_3", "e_3", "e_4")),
    "EmptyContour": lambda: arr_with(
        "faces", "f_7",
        contours=crossed().arrangement.face("f_7").contours + ((),)),
    "UnknownEdgeSide": lambda: arr_with(
        "faces", "f_10", contours=((("e_2", 1), ("e_3", 1), ("zz", 1)),)),
    "SideDoubleClaimed": lambda: arr_with(
        "faces", "f_9",
        contours=crossed().arrangement.face("f_9").contours + ((("e_c2", 1),),)),
    "SideFaceMismatch": lambda: arr_with("edges", "e_c2", left="f_8"),
    "ContourWalk": lambda: arr_with(
        "faces", "f_7", contours=((("e_1", -1), ("e_4", -1), ("e_c2", 1)),)),
    "SideUnclaimed": lambda: arr_with("faces", "f_10", contours=()),
    "UnboundedCount": lambda: arr_with("faces", "f_10", unbounded=True),
    "EulerFormula:empty map": lambda: replace(
        empty_arrangement(),
        faces=empty_arrangement().faces + (Face("f_extra", contours=()),)),
}

BORN_MAP_CASES = {
    "PolyhedronInvalid": lambda: born_with(polyhedron=replace(
        crossed().polyhedron, sheets=crossed().polyhedron.sheets[1:])),
    "NotNormal": lambda: replace(build_sphere_fixture(),
                                 polyhedron=swapped_theta()),
    "ArrangementInvalid": lambda: born_with(arrangement=replace(
        crossed().arrangement, faces=crossed().arrangement.faces[1:])),
    "AssignmentTotality": lambda: born_with(assignments={
        k: a for k, a in crossed().assignments.items() if k != "c2"}),
    "AssignmentInjective": lambda: assigned("c2", curve="im_c1"),
    "BranchCurveCover": lambda: assigned("c2", curve="zz"),
    "SourceTag": lambda: born_with(arrangement=arr_with(
        "curves", "im_c2", source=("branch", "zz"))),
    "CountMissing": lambda: born_with(fiber_counts={
        f: n for f, n in crossed().fiber_counts.items() if f != "f_10"}),
    "CountUnknownFace": lambda: born_with(
        fiber_counts={**crossed().fiber_counts, "zz": 3}),
    "NegativeCount": lambda: born_with(
        fiber_counts={**crossed().fiber_counts, "f_10": -1}),
    "ClosedSheet": lambda: born_with(polyhedron=replace(
        crossed().polyhedron, sheets=crossed().polyhedron.sheets
        + (SheetSpec("closed", True, 0, ()),))),
    # f_8 is a corner of both crossings and borders two branch edges
    "CornerRule": lambda: born_with(
        fiber_counts={**crossed().fiber_counts, "f_8": 4}),
    "AuxJump": lambda: born_with(arrangement=arr_with(
        "curves", "im_c2", source=("aux", "c2"))),
    "WingSides:slots [] vs [0]": lambda: assigned("c2", wing_sides=()),
    # the last entry alone would be valid
    "WingSides:slot 0 listed twice": lambda: assigned(
        "c2", wing_sides=((("c2", 0), "R"), (("c2", 0), "L"))),
    "VertexMap:domain mismatch": lambda: born_with(
        vertex_crossings={"v_xa_0": "x_5"}),
    "VertexMap:not a bijection": lambda: born_with(
        vertex_crossings={"v_xa_0": "x_5", "v_xa_1": "x_5"}),
    "VertexMap:curves": lambda: born_with(assignments={
        **crossed().assignments,
        "c1.0": replace(crossed().assignments["c1.0"], curve="im_c2"),
        "c2": replace(crossed().assignments["c2"], curve="im_c1")}),
}


def check(validate, case, make):
    code, _, detail = case.partition(":")
    report = validate(make())
    assert not report.ok
    assert any(v.code == code and detail in v.detail
               for v in report.violations), str(report)


@pytest.mark.parametrize("case", POLYHEDRON_CASES)
def test_every_polyhedron_violation_is_reported(case):
    check(validate_polyhedron, case, POLYHEDRON_CASES[case])


@pytest.mark.parametrize("case", ARRANGEMENT_CASES)
def test_every_arrangement_violation_is_reported(case):
    check(validate_arrangement, case, ARRANGEMENT_CASES[case])


@pytest.mark.parametrize("case", BORN_MAP_CASES)
def test_every_born_map_violation_is_reported(case):
    check(validate_born_map, case, BORN_MAP_CASES[case])


@pytest.mark.parametrize("validate, case, codes", [
    (validate_polyhedron, POLYHEDRON_CASES["ArcEndReused"],
     ["StrandMismatch", "StrandMismatch", "ArcEndReused"]),
    (validate_polyhedron, POLYHEDRON_CASES["VertexEndKind"],
     ["StrandMismatch", "VertexEndKind", "StrandMismatch"]),
    (validate_born_map, BORN_MAP_CASES["ClosedSheet"], ["ClosedSheet"]),
    (validate_born_map, BORN_MAP_CASES["CornerRule"],
     ["CrossingRule", "HeavySide", "CornerRule", "CornerRule"]),
], ids=["ArcEndReused", "VertexEndKind", "ClosedSheet", "CornerRule"])
def test_the_codes_that_come_together(validate, case, codes):
    assert [v.code for v in validate(case()).violations] == codes


def test_an_arrangement_without_an_unbounded_face_has_none_to_name():
    arr = crossed().arrangement
    bounded = replace(arr, faces=tuple(replace(f, unbounded=False)
                                       for f in arr.faces))
    with pytest.raises(InvalidArrangement) as caught:
        bounded.unbounded_face
    assert [v.code for v in caught.value.report.violations] == \
        ["NoUnboundedFace"]


def circle_with(plan, index, **changes):
    """`plan` with its circle `index` replaced by a changed copy."""
    circles = list(plan.circles)
    circles[index] = replace(circles[index], **changes)
    return replace(plan, circles=tuple(circles))


def klein_with(**changes):
    """klein_plan with its circle outer_cut changed."""
    return circle_with(klein_plan(), 0, **changes)


def xa_with(**changes):
    """crossing_plan_on_two_circles with its circle xa changed."""
    return circle_with(crossing_plan_on_two_circles(), 0, **changes)


def xa_part(field, i, **changes):
    """xa with its `field` (events or segments) entry `i` changed."""
    items = list(getattr(crossing_plan_on_two_circles().circles[0], field))
    items[i] = replace(items[i], **changes)
    return xa_with(**{field: tuple(items)})


def xa_image(**changes):
    image = crossing_plan_on_two_circles().circles[0].image
    return xa_with(image=replace(image, **changes))


def base_with(plan, **changes):
    return replace(plan, base=replace(plan.base, **changes))


def s2_non_orientable():
    plan = crossing_plan_on_two_circles()
    poly = plan.base.polyhedron
    sheets = tuple(replace(s, orientable=False, genus=1) if s.id == "s2" else s
                   for s in poly.sheets)
    return base_with(plan, polyhedron=replace(poly, sheets=sheets))


def xa_and_xb():
    """xa plus a circle xb crossing c1 too, between s1 and s2."""
    plan = crossing_plan_on_two_circles()
    xb = PlanCircle(
        "xb", (PlanSegment("s1"), PlanSegment("s2", side_genus=0)),
        (PlanEvent("c1", Fraction(1, 6), slot_in=1, slot_out=2),
         PlanEvent("c1", Fraction(5, 6), slot_in=2, slot_out=1)),
        replace(plan.circles[0].image, crossings=(("e_c1", Fraction(1, 6)),
                                                  ("e_c1", Fraction(5, 6)))))
    return replace(plan, circles=plan.circles + (xb,),
                   patch=replace(plan.patch, boundaries=2))


def xa_four_times():
    """xa crossing c1 four times, so that two chords run through s2."""
    positions = [Fraction(i, 5) for i in range(1, 5)]
    return xa_with(
        segments=(PlanSegment("s0"), PlanSegment("s2", side_genus=0)) * 2,
        events=tuple(PlanEvent("c1", x, slot_in=a, slot_out=b)
                     for x, (a, b) in zip(positions, [(0, 2), (2, 0)] * 2)),
        image=replace(crossing_plan_on_two_circles().circles[0].image,
                      crossings=tuple(("e_c1", x) for x in positions),
                      runs=(("r1", "right"), ("r0", None)) * 2))


# case -> (plan, the report's codes, text of one violation's str)
PLAN_CASES = {
    "BaseInvalid": (
        lambda: base_with(klein_plan(), fiber_counts={
            f: n for f, n in klein_plan().base.fiber_counts.items()
            if f != "r0"}),
        ["BaseInvalid", "CountMissing"], "BaseInvalid(klein_attachment)"),
    "CircleIds": (
        lambda: circle_with(klein_plan(), 1, id="outer_cut", image=replace(
            klein_plan().circles[1].image, inside=None)),
        ["CircleIds"], "CircleIds(klein_attachment)"),
    "ItineraryShape:crossing-free": (
        lambda: klein_with(segments=klein_plan().circles[0].segments * 2),
        ["ItineraryShape"], "ItineraryShape(outer_cut)"),
    "ItineraryShape:crossing": (
        lambda: xa_with(segments=(PlanSegment("s0"),)),
        ["ItineraryShape"], "ItineraryShape(xa)"),
    "ItineraryShape:side genus": (
        lambda: xa_part("segments", 1, side_genus=1),
        ["ItineraryShape"], "ItineraryShape(s2): side genus"),
    "ItineraryShape:side circuits": (
        lambda: xa_part("segments", 1, side_circuits=(2,)),
        ["ItineraryShape"], "ItineraryShape(s2): side circuits"),
    "ImageCorrespondence:route shape": (
        lambda: xa_image(crossings=(("e_c1", Fraction(1, 3)),)),
        ["ImageCorrespondence"], "route shape does not match the events"),
    "ImageCorrespondence:unknown edge": (
        lambda: xa_image(crossings=(("zz", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3)))),
        ["ImageCorrespondence"], "unknown edge zz"),
    "ImageCorrespondence:other curve": (
        lambda: xa_image(crossings=(("e_c2", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3)))),
        ["ImageCorrespondence"], "edge e_c2 is not on the image of c1"),
    "EventPosition:end of arc": (
        lambda: xa_part("events", 0, position=Fraction(1)),
        ["EventPosition"], "EventPosition(xa): c1"),
    "EventPosition:repeated": (
        lambda: xa_part("events", 1, position=Fraction(1, 3)),
        ["EventPosition"], "repeated position on c1"),
    # the run after the second crossing must be r0, where it starts
    "RouteOverEmptyFace": (
        lambda: xa_image(runs=(("r1", "right"), ("r_out", None))),
        ["RouteFaceMismatch", "RouteFaceMismatch", "RouteOverEmptyFace"],
        "RouteOverEmptyFace(xa): r_out"),
    "UnknownFace:crossing-free": (
        lambda: klein_with(image=replace(klein_plan().circles[0].image,
                                         face="zz")),
        ["UnknownFace"], "UnknownFace(outer_cut): zz"),
    "NonTransverse:boundary arc": (
        lambda: xa_part("events", 0, arc="c2"),
        ["NonTransverse"], "c2 is not a triple arc"),
    # s0 and s1 both lie left of the image of c1
    "NonTransverse:one side": (
        lambda: xa_with(
            segments=(PlanSegment("s0"), PlanSegment("s1")),
            events=(PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=1),
                    PlanEvent("c1", Fraction(2, 3), slot_in=1, slot_out=0)),
            image=replace(crossing_plan_on_two_circles().circles[0].image,
                          runs=(("r0", None), ("r0", None)))),
        ["NonTransverse", "NonTransverse"], "both wings on side L"),
    # every crossing of c1 reaches s2, so xb also cuts s2 a second time
    "UnsupportedItinerary:two circles on one arc": (
        xa_and_xb, ["UnsupportedItinerary", "UnsupportedItinerary"],
        "UnsupportedItinerary(c1): two circles cross the same arc"),
    "UnsupportedItinerary:non-orientable sheet": (
        s2_non_orientable, ["UnsupportedItinerary"],
        "chord through a non-orientable sheet"),
    "UnsupportedItinerary:several chords": (
        xa_four_times, ["UnsupportedItinerary"],
        "UnsupportedItinerary(s2): multiple chords through a non-disk sheet"),
    # a chord's sheet is the one its events' wings lie in, so an unknown
    # one is reported before the events, which it would also mismatch
    "UnknownSheet:chord": (
        lambda: xa_part("segments", 0, sheet="zz"),
        ["UnknownSheet"], "UnknownSheet(xa): zz"),
    # segment 1 runs from wing 2 of c1 back to it, and that wing lies in s2
    "ItineraryMismatch": (
        lambda: xa_part("segments", 1, sheet="s1"),
        ["ItineraryMismatch", "ItineraryMismatch"],
        "ItineraryMismatch(xa): event 0: wing 2 lies in s2"),
}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_every_plan_hypothesis_is_reported_and_raised(case):
    make, codes, text = PLAN_CASES[case]
    plan = make()
    report = check_attachment_hypotheses(plan)
    assert [v.code for v in report.violations] == codes, str(report)
    assert any(text in str(v) for v in report.violations), str(report)
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == codes[0]


def relocation_with(**changes):
    return replace(relocation_plan(), **changes)


# case -> (plan, the code normalized_plan raises, its message)
RELOCATION_CASES = {
    "no witness": (lambda: relocation_with(witness=None),
                   "WitnessMismatch", "no relocation witness supplied"),
    "witness circles": (
        lambda: relocation_with(witness=replace(
            relocation_plan().witness, nesting=(("outer_cut", None, 1),))),
        "WitnessMismatch", "witness circles do not match the plan"),
    "unknown disk faces": (
        lambda: relocation_with(disks=(
            replace(relocation_plan().disks[0], faces=("zz",)),
            relocation_plan().disks[1])),
        "ContainmentViolated", "unknown faces for outer_cut"),
    "nested image": (
        lambda: circle_with(relocation_plan(), 1, image=replace(
            relocation_plan().circles[1].image, inside="outer_cut")),
        "ContainmentViolated", "image of inner_cut nests inside another circle"),
    "image outside its disk": (
        lambda: relocation_with(disks=tuple(
            replace(d, circle=other) for d, other in zip(
                relocation_plan().disks, ("inner_cut", "outer_cut")))),
        "ContainmentViolated", "image of outer_cut not inside its disk region"),
}


@pytest.mark.parametrize("case", RELOCATION_CASES)
def test_every_relocation_hypothesis_is_raised(case):
    make, code, message = RELOCATION_CASES[case]
    with pytest.raises(PlanError) as caught:
        normalized_plan(make())
    assert (caught.value.code, str(caught.value)) == (code, message)
