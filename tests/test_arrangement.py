from fractions import Fraction

import pytest

from spineforge import formats
from spineforge.arrangement import (ArrangementBuilder, ArrEdge, Crossing,
                                    Curve, CurveArrangement, Face,
                                    validate_arrangement, winding_numbers)
from spineforge.core import ValidationReport, Violation
from spineforge.errors import InvalidArrangement, PlanError
from spineforge.gallery import build_base_example

from conftest import empty_arrangement, repo_path
from randgen import random_surgered_maps


def two_disjoint_circles():
    edges = (ArrEdge("eA", "A", None, "fa", "f_out"),
             ArrEdge("eB", "B", None, "fb", "f_out"))
    curves = (Curve("A", ("aux", "a"), ("eA",)),
              Curve("B", ("aux", "b"), ("eB",)))
    faces = (Face("fa", ((("eA", 1),),)),
             Face("fb", ((("eB", 1),),)),
             Face("f_out", ((("eA", -1),), (("eB", -1),)), unbounded=True))
    return CurveArrangement((), edges, curves, faces)


def vesica():
    """Two circles crossing twice: faces are two moons, a lens, outside."""
    crossings = (
        Crossing("x1", (("b2", 1), ("a1", 0), ("b1", 0), ("a2", 1))),
        Crossing("x2", (("a2", 0), ("b1", 1), ("a1", 1), ("b2", 0))),
    )
    edges = (
        ArrEdge("a1", "A", (("x1", 1), ("x2", 2)), "fl", "f_out"),
        ArrEdge("a2", "A", (("x2", 0), ("x1", 3)), "fm", "fr"),
        ArrEdge("b1", "B", (("x1", 2), ("x2", 1)), "fm", "fl"),
        ArrEdge("b2", "B", (("x2", 3), ("x1", 0)), "fr", "f_out"),
    )
    curves = (Curve("A", ("aux", "a"), ("a1", "a2")),
              Curve("B", ("aux", "b"), ("b1", "b2")))
    faces = (
        Face("fl", ((("a1", 1), ("b1", -1)),)),
        Face("fm", ((("a2", 1), ("b1", 1)),)),
        Face("fr", ((("a2", -1), ("b2", 1)),)),
        Face("f_out", ((("a1", -1), ("b2", -1)),), unbounded=True),
    )
    return CurveArrangement(crossings, edges, curves, faces)


def figure_eight():
    crossings = (
        Crossing("x", (("e2", 0), ("e1", 0), ("e1", 1), ("e2", 1))),
    )
    edges = (
        ArrEdge("e1", "C", (("x", 1), ("x", 2)), "f_left", "f_out"),
        ArrEdge("e2", "C", (("x", 0), ("x", 3)), "f_out", "f_right"),
    )
    curves = (Curve("C", ("aux", "c"), ("e1", "e2")),)
    faces = (
        Face("f_left", ((("e1", 1),),)),
        Face("f_right", ((("e2", -1),),)),
        Face("f_out", ((("e1", -1), ("e2", 1)),), unbounded=True),
    )
    return CurveArrangement(crossings, edges, curves, faces)


def test_two_disjoint_circles_valid():
    arr = two_disjoint_circles()
    assert validate_arrangement(arr).ok
    assert len(arr.faces) == 3


def test_vesica_valid():
    arr = vesica()
    assert validate_arrangement(arr).ok
    assert len(arr.faces) == 4
    assert len(arr.crossings) == 2


def test_figure_eight_valid():
    arr = figure_eight()
    assert validate_arrangement(arr).ok
    assert len(arr.faces) == 3
    assert len(arr.crossings) == 1


def test_empty_arrangement_valid():
    assert validate_arrangement(empty_arrangement()).ok


def test_non_four_valent_crossing_rejected():
    arr = vesica()
    broken = CurveArrangement(
        (Crossing("x1", arr.crossing("x1").order[:3]),) + arr.crossings[1:],
        arr.edges, arr.curves, arr.faces)
    report = validate_arrangement(broken)
    assert not report.ok
    assert any(v.code == "NotFourValent" for v in report.violations)


def test_dangling_edge_rejected():
    arr = two_disjoint_circles()
    broken = CurveArrangement(
        arr.crossings,
        (ArrEdge("eA", "A", (("nowhere", 0), ("nowhere", 1)), "fa", "f_out"),
         arr.edges[1]),
        arr.curves, arr.faces)
    report = validate_arrangement(broken)
    assert not report.ok
    assert any(v.code == "DanglingEdge" for v in report.violations)


def test_curve_naming_an_unknown_edge_rejected():
    arr = two_disjoint_circles()
    broken = CurveArrangement(
        arr.crossings, arr.edges,
        (Curve("A", ("aux", "a"), ("eA", "nowhere")), arr.curves[1]),
        arr.faces)
    report = validate_arrangement(broken)
    assert not report.ok
    assert any(v.code == "CurveMembership" for v in report.violations)


def test_euler_failure_rejected():
    # an extra face breaks the plane count
    arr = two_disjoint_circles()
    broken = CurveArrangement(
        arr.crossings, arr.edges, arr.curves,
        arr.faces + (Face("ghost", ()),))
    report = validate_arrangement(broken)
    assert not report.ok
    codes = {v.code for v in report.violations}
    assert "EulerFormula" in codes or "EmptyContour" in codes


def test_winding_numbers_on_vesica():
    arr = vesica()
    winding = winding_numbers(arr, {"A": 1, "B": 1})
    assert winding["f_out"] == 0
    assert winding["fl"] == 1
    assert winding["fr"] == 1
    assert winding["fm"] == 2


def test_winding_numbers_on_figure_eight():
    arr = figure_eight()
    winding = winding_numbers(arr, {"C": 1})
    assert winding["f_out"] == 0
    assert winding["f_left"] == 1
    assert winding["f_right"] == -1


def test_winding_numbers_reject_an_edge_with_one_face_on_both_sides():
    edges = (ArrEdge("e", "C", None, "f_out", "f_out"),)
    curves = (Curve("C", ("aux", "c"), ("e",)),)
    faces = (Face("f_out", ((("e", 1),), (("e", -1),)), unbounded=True),)
    arr = CurveArrangement((), edges, curves, faces)
    with pytest.raises(InvalidArrangement) as caught:
        winding_numbers(arr, {"C": 1})
    assert [v.code for v in caught.value.report.violations] == \
        ["WindingInconsistent"]


def edge_scan_winding_numbers(arr, oriented_curves):
    """Oracle: winding numbers by rescanning every edge for each face."""
    values = {arr.unbounded_face.id: 0}
    queue = [arr.unbounded_face.id]
    while queue:
        fid = queue.pop()
        base = values[fid]
        for edge in arr.edges:
            sign = oriented_curves.get(edge.curve, 0)
            if edge.left == fid:
                nxt, delta = edge.right, -sign
            elif edge.right == fid:
                nxt, delta = edge.left, sign
            else:
                continue
            target = base + delta
            if nxt in values:
                if values[nxt] != target:
                    raise InvalidArrangement(ValidationReport.failed(
                        [Violation("WindingInconsistent", nxt)]))
            else:
                values[nxt] = target
                queue.append(nxt)
    for face in arr.faces:
        values.setdefault(face.id, 0)
    return values


def test_winding_numbers_match_an_edge_scan_on_surgery_outputs(rng):
    for born in random_surgered_maps(rng, 100):
        arr = born.arrangement
        every_curve = {curve.id: 1 for curve in arr.curves}
        assert winding_numbers(arr, every_curve) == \
            edge_scan_winding_numbers(arr, every_curve)


def test_route_through_the_unbounded_face_is_refused():
    # e_c11 parts r5 from r_out; a route crossing it twice runs a chord
    # through r_out, which would split the unbounded face
    builder = ArrangementBuilder(build_base_example().arrangement)
    crossings = (("e_c11", Fraction(1, 3)), ("e_c11", Fraction(2, 3)))
    with pytest.raises(PlanError) as caught:
        builder.insert_route("x", crossings, (("r_out", None), ("r5", None)),
                             ("aux", "x"))
    assert caught.value.code == "UnsupportedRoute"
    assert str(caught.value) == "chord through the unbounded face"


TWICE_ACROSS_C10 = (("e_c10", Fraction(1, 3)), ("e_c10", Fraction(2, 3)))


@pytest.mark.parametrize("curve_id, crossings, runs, code, message", [
    ("im_c1", TWICE_ACROSS_C10, (("r4", None), ("r5", None)),
     "DuplicateImage", "im_c1"),
    ("x", (), (), "RouteShape", "x"),
    ("x", TWICE_ACROSS_C10, (("r4", None),), "RouteShape", "x"),
    ("x", (("e_c10", Fraction(1, 2)), ("e_c10", Fraction(1, 2))),
     (("r4", None), ("r5", None)), "RouteShape", "repeated position on e_c10"),
    # e_4 is a piece of e_c10, which the route splits
    ("x", TWICE_ACROSS_C10, (("r4", None), ("r4", None)),
     "NonTransverse", "route x does not cross e_4"),
    ("x", TWICE_ACROSS_C10, (("r5", None), ("r1", None)),
     "RouteFaceMismatch", "face r1 not adjacent to crossed edge"),
], ids=["duplicate image", "no crossings", "runs unmatched",
        "repeated position", "one face both sides", "face not adjacent"])
def test_insert_route_refusals(curve_id, crossings, runs, code, message):
    builder = ArrangementBuilder(build_base_example().arrangement)
    with pytest.raises(PlanError) as caught:
        builder.insert_route(curve_id, crossings, runs, ("aux", curve_id))
    assert caught.value.code == code
    assert str(caught.value) == message


def test_a_route_finds_a_face_split_earlier_by_its_origin():
    # route B names r1, which route A split: it matches the piece of r1
    # beside e_c2 through that piece's origin
    builder = ArrangementBuilder(build_base_example().arrangement)
    builder.insert_route("A", (("e_c1", Fraction(1, 4)), ("e_c1", Fraction(3, 4))),
                         (("r0", None), ("r1", "right")), ("aux", "A"))
    assert "r1" not in builder.faces
    builder.insert_route("B", (("e_c2", Fraction(1, 4)), ("e_c2", Fraction(3, 4))),
                         (("r1", "left"), ("r2", "right")), ("aux", "B"))
    arr = builder.freeze()
    assert validate_arrangement(arr).ok
    assert len(arr.faces) == 11
    origins = [builder.origin(face.id) for face in arr.faces]
    assert [origins.count(fid) for fid in ("r0", "r1", "r2")] == [2, 3, 2]


def test_a_route_that_leaves_a_face_unsplit_is_refused():
    # f_8 is a disk whose contour meets e_1 at 1/10, 2/10 and then e_3 at
    # 2/10, 1/10; its two chords, e_1@2/10 to e_3@1/10 and e_3@2/10 to
    # e_1@1/10, would cross inside it, and the face assembled from them
    # anyway breaks Euler's formula
    with open(repo_path("fixtures", "crossed.arr")) as handle:
        arr, _ = formats.parse_arr(handle.read())
    builder = ArrangementBuilder(arr)
    crossings = tuple((eid, Fraction(k, 10)) for eid in ("e_1", "e_3") for k in (1, 2))
    runs = tuple((fid, "left") for fid in ("f_7", "f_8", "f_10", "f_8"))
    with pytest.raises(PlanError) as caught:
        builder.insert_route("x", crossings, runs, ("aux", "x"))
    assert caught.value.code == "RouteShape"
    assert str(caught.value) == "route does not split face f_8"
