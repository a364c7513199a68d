import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from spineforge import formats
from spineforge.arrangement import ArrangementBuilder
from spineforge.core import (SheetSpec, WingTraversal, euler_characteristic,
                             is_normal, strand_circles, validate_polyhedron)
from spineforge.homology import z2_homology
from spineforge.bornmap import validate_born_map
from spineforge.errors import (NoEmptyRegion, PatchNotOrientable, PlanError,
                               WitnessMismatch)
from spineforge.gallery import (RoundCircle, RoundSpec, build_base_example,
                                build_closed_sheet, build_surgered_example,
                                klein_plan, relocation_plan, round_reeb)
from spineforge.obstruction import s3_obstruction
from spineforge.surgery import (ImageCircle, ImageRoute, PlanCircle,
                                PlanEvent, PlanSegment, SurfacePatch,
                                SurgeryPlan, relocate_and_attach, attach_surface,
                                check_attachment_hypotheses, normalize_into_disk,
                                normalized_plan, _Chord, _cut_sheet)

from conftest import repo_path
from randgen import (random_crossing_plan, random_interior_plan,
                     random_iterated_map, random_round_map, tower_map)


def test_klein_plan_passes_hypotheses():
    plan = klein_plan()
    assert check_attachment_hypotheses(plan).ok


def test_boundary_mismatch_detected():
    plan = klein_plan()
    broken = replace(plan, patch=replace(plan.patch, boundaries=3))
    report = check_attachment_hypotheses(broken)
    assert not report.ok
    assert any(v.code == "BoundaryMismatch" for v in report.violations)


def test_non_orientable_patch_without_crosscaps_is_a_patch_shape():
    plan = klein_plan()
    broken = replace(plan, patch=replace(plan.patch, orientable=False, genus=0))
    report = check_attachment_hypotheses(broken)
    assert [v.code for v in report.violations] == ["PatchShape"]
    with pytest.raises(PlanError) as caught:
        attach_surface(broken)
    assert caught.value.code == "PatchShape"


def test_minted_id_meeting_a_kept_id_is_an_id_collision(rng):
    # an untouched sheet named like the first piece of a cut sheet: the
    # base is valid, and the output would name two sheets alike
    for trial in range(100):
        born = random_round_map(rng, name=f"ic{trial}")
        plan = random_crossing_plan(rng, born)
        if plan is None:
            continue
        cut = plan.circles[0].segments[0].sheet
        untouched = [s.id for s in born.polyhedron.sheets
                     if s.id not in {seg.sheet for seg in plan.circles[0].segments}]
        if untouched:
            break
    else:
        pytest.fail("no crossing plan leaves a sheet untouched")
    poly = born.polyhedron
    sheets = tuple(replace(s, id=f"{cut}.p0") if s.id == untouched[0] else s
                   for s in poly.sheets)
    base = replace(born, polyhedron=replace(poly, sheets=sheets))
    assert validate_born_map(base).ok
    with pytest.raises(PlanError) as caught:
        attach_surface(replace(plan, base=base))
    assert caught.value.code == "IdCollision"
    assert str(caught.value) == f"two parts of the output are named {cut}.p0"


def test_names_minted_by_two_circles_are_an_id_collision():
    # xa crosses two arcs and names its new arcs t_xa.0 and t_xa.1; the
    # crossing-free circle xa.0 would name its own new arc t_xa.0 too
    plan = crossing_plan_on_two_circles()
    extra = PlanCircle("xa.0", (PlanSegment("s1"),), (),
                       ImageCircle(face="r_out"))
    plan = replace(plan, circles=plan.circles + (extra,),
                   patch=SurfacePatch(True, 0, 2, id="p"))
    assert check_attachment_hypotheses(plan).ok
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == "IdCollision"
    assert str(caught.value) == "circles xa and xa.0 both mint t_xa.0"


def with_s1_named(plan, name):
    """The plan on a base whose sheet s1, which no circle visits, is
    renamed `name`."""
    poly = plan.base.polyhedron
    sheets = tuple(replace(s, id=name) if s.id == "s1" else s
                   for s in poly.sheets)
    base = replace(plan.base, polyhedron=replace(poly, sheets=sheets))
    assert validate_born_map(base).ok
    return replace(plan, base=base)


@pytest.mark.parametrize("name", ["d_xa", "t_xa"])
def test_names_a_circle_does_not_mint_stay_free(name):
    # xa has events, so it mints t_xa.0 and t_xa.1 but neither t_xa nor d_xa
    out = attach_surface(with_s1_named(crossing_plan_on_two_circles(), name))
    assert validate_born_map(out).ok
    assert name in {s.id for s in out.polyhedron.sheets}


def test_minted_name_on_an_untouched_sheet_is_an_id_collision():
    plan = with_s1_named(crossing_plan_on_two_circles(), "t_xa.0")
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == "IdCollision"
    assert str(caught.value) == "two parts of the output are named t_xa.0"


def test_patch_named_like_a_sheet_gets_an_underscore():
    plan = klein_plan()
    out = attach_surface(replace(plan, patch=replace(plan.patch, id="i_band")))
    ids = [s.id for s in out.polyhedron.sheets]
    assert ids.count("i_band") == 1 and ids[-1] == "i_band_"


def image_beside_route(circle_id, holes="right"):
    """crossing_plan_on_two_circles plus a crossing-free circle in s1 whose
    image lies in r1, a face the route splits; `holes` is the side of the
    route's run through r1 that keeps that image."""
    plan = crossing_plan_on_two_circles()
    route = plan.circles[0]
    route = replace(route, image=replace(
        route.image, runs=(("r1", holes),) + route.image.runs[1:]))
    extra = PlanCircle(circle_id, (PlanSegment("s1"),), (),
                       ImageCircle(face="r1"))
    return replace(plan, circles=(route, extra),
                   patch=SurfacePatch(True, 0, 2, id="p"))


@pytest.mark.parametrize("circle_id", ["zz", "a0"])
def test_image_goes_in_before_a_route_splits_its_face(circle_id):
    # circle ids sort after (zz) or before (a0) the route's, xa; crossing-free
    # images go in first either way
    out = attach_surface(image_beside_route(circle_id))
    poly = out.polyhedron
    assert validate_born_map(out).ok
    assert len(poly.sheets) == 7
    assert euler_characteristic(poly) == 2
    assert z2_homology(poly) == (1, 1, 2)
    assert s3_obstruction(poly, 10 ** 5)[0] == "not-obstructed"


@pytest.mark.parametrize("circle_id", ["zz", "a0"])
def test_route_through_a_face_with_holes_declares_their_side(circle_id):
    # r1 holds the face r0 and the image; the run must say which side of
    # the route keeps them
    with pytest.raises(PlanError) as caught:
        attach_surface(image_beside_route(circle_id, holes=None))
    assert caught.value.code == "UnsupportedRoute"


@pytest.mark.parametrize("value", [0, 2])
@pytest.mark.parametrize("field", ["patch_dir", "orient"])
def test_sign_outside_plus_minus_one_is_rejected(field, value):
    plan = klein_plan()
    circle = plan.circles[0]
    if field == "patch_dir":
        circle = replace(circle, patch_dir=value)
    else:
        circle = replace(circle, image=replace(circle.image, orient=value))
    plan = replace(plan, circles=(circle,) + plan.circles[1:])
    report = check_attachment_hypotheses(plan)
    assert [(v.code, v.detail) for v in report.violations] == \
        [("SignRange", f"{field} {value}")]
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == "SignRange"


def test_touching_event_is_not_transverse():
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("boundary", 1, 0, pos=0, radius=2)), name="two"))
    circle = PlanCircle(
        id="t0",
        segments=(PlanSegment(sheet="s0"), PlanSegment(sheet="s0")),
        events=(
            PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=0),
            PlanEvent("c1", Fraction(2, 3), slot_in=0, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3))),
                         runs=(("r0", None), ("r0", None))))
    plan = SurgeryPlan(base=base, circles=(circle,),
                       patch=SurfacePatch(True, 0, 1))
    report = check_attachment_hypotheses(plan)
    assert not report.ok
    assert any(v.code == "NonTransverse" for v in report.violations)


def test_attach_annulus_preserves_euler():
    base = build_base_example()
    out = attach_surface(klein_plan(base))
    assert euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron)
    assert len(strand_circles(out.polyhedron)) == 8
    assert len(out.polyhedron.vertices) == 0


def test_attach_disk_to_closed_surface():
    # one circle in a closed sheet, disk patch: characteristic grows by one
    sheet = build_closed_sheet(1)
    from conftest import empty_arrangement
    from spineforge.bornmap import BornMap
    born = BornMap(polyhedron=sheet, arrangement=empty_arrangement(),
                   assignments={}, fiber_counts={"f_out": 0},
                   vertex_crossings={}, name="torus")
    # a closed sheet maps nowhere sensible over the plane; counts say so
    report = validate_born_map(born)
    assert not report.ok  # the torus covers the unbounded face or nothing

    # use a genuine map instead: the sphere fixture has a disk sheet; attach
    # a disk along an interior circle
    from spineforge.gallery import build_sphere_fixture
    base = build_sphere_fixture()
    circle = PlanCircle(id="c", segments=(PlanSegment(sheet="s0"),),
                        events=(),
                        image=ImageCircle(face="r0", orient=1))
    plan = SurgeryPlan(base=base, circles=(circle,),
                       patch=SurfacePatch(True, 0, 1, id="cap"))
    out = attach_surface(plan)
    assert euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron) + 1
    assert len(strand_circles(out.polyhedron)) == 2
    assert is_normal(out.polyhedron)


def test_crossing_circle_makes_two_vertices():
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("boundary", 1, 0, pos=0, radius=2)), name="two"))
    circle = PlanCircle(
        id="w",
        segments=(PlanSegment(sheet="s0"),
                  PlanSegment(sheet="s2", side_genus=0, side_circuits=())),
        events=(PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=2),
                PlanEvent("c1", Fraction(2, 3), slot_in=2, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3))),
                         runs=(("r1", "right"), ("r0", None))))
    plan = SurgeryPlan(base=base, circles=(circle,),
                       patch=SurfacePatch(True, 0, 1, id="cap"))
    out = attach_surface(plan)
    assert len(out.polyhedron.vertices) == 2
    assert validate_polyhedron(out.polyhedron).ok
    assert validate_born_map(out).ok
    assert euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron) + 1



def non_separating_chord_plan(holes):
    """A disk glued along a circle whose chords through the annuli s1 and
    s2 each run from the circuit on c1 to the circuit on c2, so cutting
    leaves each of them connected; the chords through the disk s0 and the
    annulus s3 separate.  `holes` is the side of the route's run through
    r2 that takes the curve of c3."""
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 1, 2), RoundCircle("triple", 2, 1),
        RoundCircle("boundary", 1, 0)), name="three"))
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    circle = PlanCircle(
        id="w",
        segments=(PlanSegment("s1", side_genus=0, side_circuits=()),
                  PlanSegment("s0"),
                  PlanSegment("s2", side_genus=0, side_circuits=()),
                  PlanSegment("s3")),
        events=(PlanEvent("c1", quarter, slot_in=0, slot_out=2),
                PlanEvent("c1", three_quarters, slot_in=2, slot_out=1),
                PlanEvent("c2", quarter, slot_in=1, slot_out=2),
                PlanEvent("c2", three_quarters, slot_in=2, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", quarter),
                                    ("e_c1", three_quarters),
                                    ("e_c2", quarter),
                                    ("e_c2", three_quarters)),
                         runs=(("r0", None), ("r1", None), ("r2", holes),
                               ("r1", None))))
    return SurgeryPlan(base=base, circles=(circle,),
                       patch=SurfacePatch(True, 0, 1, id="cap"))


def test_non_separating_chords_attach():
    plan = non_separating_chord_plan("right")
    assert check_attachment_hypotheses(plan).ok
    out = attach_surface(plan)
    assert validate_born_map(out).ok
    chi = euler_characteristic(out.polyhedron)
    assert chi == euler_characteristic(plan.base.polyhedron) + plan.patch.euler
    b0, b1, b2 = z2_homology(out.polyhedron)
    assert b0 - b1 + b2 == chi
    # each annulus stays one piece, now a disk holding both slots of its
    # chord's new arc
    for sheet_id, t_arc in (("s1.p0", "t_w.0"), ("s2.p0", "t_w.2")):
        sheet = out.polyhedron.sheet(sheet_id)
        assert (sheet.genus, len(sheet.circuits)) == (0, 1)
        assert {(t.slot, t.direction) for t in sheet.circuits[0]
                if t.arc == t_arc} == {(1, -1), (2, 1)}
    poly = formats.parse_spoly(formats.emit_spoly(out.polyhedron))
    arr, data = formats.parse_arr(formats.emit_arr(out))
    assert formats.assemble_born_map(poly, arr, data) == out


def test_non_separating_chords_with_holes_on_the_left_cover_negatively():
    plan = non_separating_chord_plan("left")
    assert check_attachment_hypotheses(plan).ok
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == "PatchCoverageNegative"


def test_non_separating_chord_keeps_the_other_circuits_on_its_one_piece():
    # a pair of pants cut from its circuit on a to its circuit on b: one
    # annulus, bounded by the merged circuit and the untouched one on c
    sheet = SheetSpec("s", True, 0, ((WingTraversal("a", 0, 1),),
                                     (WingTraversal("b", 0, 1),),
                                     (WingTraversal("c", 0, 1),)))
    splits = SimpleNamespace(sub_arcs={"a": [("a.0", "va", "va")],
                                       "b": [("b.0", "vb", "vb")]})
    chord = _Chord("t", p=("a", 0), q=("b", 0), p_vertex="va",
                   q_vertex="vb", side_genus=None, side_circuits=None)
    merged = (WingTraversal("a.0", 0, 1), WingTraversal("t", 2, 1),
              WingTraversal("b.0", 0, 1), WingTraversal("t", 1, -1))
    assert _cut_sheet(splits, sheet, [chord]) == \
        [("s.p0", (merged, (WingTraversal("c", 0, 1),)), 0)]


def test_surgery_output_validates_on_random_plans(rng):
    for trial in range(60):
        born = random_round_map(rng, name=f"sv{trial}")
        plan = (random_crossing_plan(rng, born) if trial % 2 else None) \
            or random_interior_plan(rng, born)
        out = attach_surface(plan)
        assert validate_polyhedron(out.polyhedron).ok
        assert is_normal(out.polyhedron)
        assert validate_born_map(out).ok


def test_normalize_relocates_into_empty_face():
    plan = relocation_plan()
    moved = normalized_plan(plan)
    zero_faces = {f.id for f in plan.base.arrangement.faces
                  if plan.base.fiber_counts[f.id] == 0}
    for circle in moved.circles:
        if circle.image.inside is None:
            assert circle.image.face in zero_faces
    out = normalize_into_disk(plan)
    assert validate_born_map(out).ok
    assert out.polyhedron == plan.base.polyhedron
    for face in plan.base.arrangement.faces:
        assert out.fiber_counts[face.id] == plan.base.fiber_counts[face.id]


def test_normalize_identity_when_already_in_disk():
    plan = relocation_plan()
    out = normalize_into_disk(plan)
    moved = normalized_plan(plan)
    plan_again = replace(moved, base=out)
    out_again = normalize_into_disk(plan_again)
    assert out_again == out


def test_normalize_requires_empty_region():
    plan = relocation_plan()
    counts = dict(plan.base.fiber_counts)
    for fid in counts:
        counts[fid] += 1
    bogus = replace(plan, base=replace(plan.base, fiber_counts=counts))
    with pytest.raises(NoEmptyRegion):
        normalize_into_disk(bogus)


def test_normalize_checks_witness():
    plan = relocation_plan()
    broken = replace(plan, witness=replace(plan.witness, surface_boundaries=5))
    with pytest.raises(WitnessMismatch):
        normalize_into_disk(broken)


def test_normalize_reports_an_unknown_top_level_face():
    plan = relocation_plan()
    outer = plan.circles[0]
    outer = replace(outer, image=replace(outer.image, face="zz"))
    broken = replace(plan, circles=(outer,) + plan.circles[1:])
    with pytest.raises(PlanError) as info:
        normalized_plan(broken)
    assert info.value.code == "UnknownFace"


def test_normalize_rejects_a_base_holding_only_some_images():
    plan = relocation_plan()
    one = replace(plan, circles=plan.circles[:1], disks=plan.disks[:1],
                  patch=replace(plan.patch, boundaries=1),
                  witness=replace(plan.witness, surface_boundaries=1,
                                  nesting=(("outer_cut", None, 1),)))
    partial = normalize_into_disk(one)
    assert "im_outer_cut" in {c.id for c in partial.arrangement.curves}
    with pytest.raises(PlanError) as info:
        normalize_into_disk(relocation_plan(partial))
    assert info.value.code == "DuplicateImage"


def nested_in(plan, circle_id, parent):
    """The plan with one circle image nested in `parent`."""
    return replace(plan, circles=tuple(
        replace(c, image=replace(c.image, inside=parent))
        if c.id == circle_id else c for c in plan.circles))


@pytest.mark.parametrize("circle_id, parent, code", [
    ("inner_cut", "nowhere", "UnknownCircle"),
    ("outer_cut", "inner_cut", "NestingCycle"),
    ("outer_cut", "outer_cut", "NestingCycle"),
])
def test_bad_image_nesting_is_rejected(circle_id, parent, code):
    plan = nested_in(klein_plan(), circle_id, parent)
    report = check_attachment_hypotheses(plan)
    assert [v.code for v in report.violations] == [code]
    with pytest.raises(PlanError) as caught:
        attach_surface(plan)
    assert caught.value.code == code


@pytest.mark.parametrize("nesting", [
    (("outer_cut", "inner_cut", 1), ("inner_cut", "outer_cut", -1)),
    (("outer_cut", None, 1), ("inner_cut", "nowhere", -1)),
])
def test_bad_witness_nesting_is_a_witness_mismatch(nesting):
    plan = relocation_plan()
    broken = replace(plan, witness=replace(plan.witness, nesting=nesting))
    with pytest.raises(WitnessMismatch):
        normalized_plan(broken)


def test_witness_orient_outside_plus_minus_one_is_rejected():
    # normalizing alone must fail as the whole pipeline does
    plan = relocation_plan()
    (cid, parent, _), *rest = plan.witness.nesting
    plan = replace(plan, witness=replace(
        plan.witness, nesting=((cid, parent, 0), *rest)))
    for entry in (normalized_plan, normalize_into_disk, relocate_and_attach):
        with pytest.raises(PlanError) as caught:
            entry(plan)
        assert caught.value.code == "SignRange"
        assert str(caught.value) == "SignRange(outer_cut): witness orient 0"


def test_normalize_needs_one_disk_region_per_circle():
    # a second region for a circle, even the same one, is not dropped
    plan = relocation_plan()
    twice = replace(plan, disks=plan.disks + plan.disks[:1])
    with pytest.raises(PlanError) as caught:
        normalized_plan(twice)
    assert caught.value.code == "ContainmentViolated"
    assert str(caught.value) == "need one disk region per circle"


def test_normalize_rejects_a_route_image():
    plan = relocation_plan()
    circle = replace(plan.circles[0], image=ImageRoute(crossings=(), runs=()))
    with pytest.raises(PlanError) as caught:
        normalized_plan(replace(plan, circles=(circle,) + plan.circles[1:]))
    assert caught.value.code == "UnsupportedItinerary"


def test_relocation_requires_orientable_patch():
    plan = relocation_plan()
    broken = replace(plan, patch=SurfacePatch(orientable=False, genus=1,
                                              boundaries=2, id="mobius"))
    with pytest.raises(PatchNotOrientable):
        relocate_and_attach(broken)


def test_relocation_pipeline_reproduces_surgered_polyhedron():
    plan = relocation_plan()
    out = relocate_and_attach(plan)
    assert validate_born_map(out).ok
    direct = build_surgered_example().polyhedron
    # the images lie elsewhere in the plane; the polyhedron is the same
    assert out.polyhedron == replace(direct, name=out.polyhedron.name)


def test_relocation_with_single_disk_patch():
    from spineforge.gallery import build_sphere_fixture
    from spineforge.surgery import DiskRegion, RelocationWitness
    base = build_sphere_fixture()
    circle = PlanCircle(id="c", segments=(PlanSegment(sheet="s0"),),
                        events=(),
                        image=ImageCircle(face="r0", orient=1))
    plan = SurgeryPlan(
        base=base, circles=(circle,),
        patch=SurfacePatch(True, 0, 1, id="cap"),
        disks=(DiskRegion("c", ("r0",)),),
        witness=RelocationWitness(nesting=(("c", None, 1),),
                                  surface_orientable=True, surface_genus=0,
                                  surface_boundaries=1))
    out = relocate_and_attach(plan)
    assert euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron) + 1


def test_mixed_interior_and_crossing_plan():
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("triple", 1, 2, pos=0, radius=2),
        RoundCircle("boundary", 2, 1, pos=0, radius=3),
        RoundCircle("boundary", 1, 0, pos=0, radius=4)), name="four"))
    crossing = PlanCircle(
        id="xa",
        segments=(PlanSegment(sheet="s0"),
                  PlanSegment(sheet="s2", side_genus=0, side_circuits=())),
        events=(PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=2),
                PlanEvent("c1", Fraction(2, 3), slot_in=2, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3))),
                         runs=(("r1", "right"), ("r0", None))))
    interior = PlanCircle(
        id="zb", segments=(PlanSegment(sheet="s4"),), events=(),
        image=ImageCircle(face="r2", orient=1))
    plan = SurgeryPlan(base=base, circles=(crossing, interior),
                       patch=SurfacePatch(True, 0, 2, id="band"),
                       name="mixed")
    assert check_attachment_hypotheses(plan).ok
    out = attach_surface(plan)
    assert validate_born_map(out).ok
    assert euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron)
    assert len(strand_circles(out.polyhedron)) == 6
    assert len(out.polyhedron.vertices) == 2


def test_chords_and_interior_circles_cannot_share_a_sheet():
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("boundary", 1, 0, pos=0, radius=2)), name="two"))
    crossing = PlanCircle(
        id="xa",
        segments=(PlanSegment(sheet="s0"),
                  PlanSegment(sheet="s2", side_genus=0, side_circuits=())),
        events=(PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=2),
                PlanEvent("c1", Fraction(2, 3), slot_in=2, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3))),
                         runs=(("r1", "right"), ("r0", None))))
    interior = PlanCircle(
        id="zb", segments=(PlanSegment(sheet="s2"),), events=(),
        image=ImageCircle(face="r1", orient=1))
    plan = SurgeryPlan(base=base, circles=(crossing, interior),
                       patch=SurfacePatch(True, 0, 2, id="band"))
    report = check_attachment_hypotheses(plan)
    assert not report.ok
    assert any(v.code == "UnsupportedItinerary" for v in report.violations)


def test_chi_additivity_on_random_plans(rng):
    for trial in range(80):
        born = random_round_map(rng, name=f"chi{trial}")
        plan = (random_crossing_plan(rng, born) if trial % 3 == 0 else None) \
            or random_interior_plan(rng, born)
        before = euler_characteristic(born.polyhedron)
        out = attach_surface(plan)
        assert euler_characteristic(out.polyhedron) == before + plan.patch.euler
        assert len(strand_circles(out.polyhedron)) == \
            len(strand_circles(born.polyhedron)) + len(plan.circles)
        events = sum(len(c.events) for c in plan.circles)
        assert len(out.polyhedron.vertices) == \
            len(born.polyhedron.vertices) + events


def crossing_plan_on_two_circles():
    """A circle crossing the triple circle of a two-circle round map twice."""
    base = round_reeb(RoundSpec(circles=(
        RoundCircle("triple", 2, 1, pos=0, radius=1),
        RoundCircle("boundary", 1, 0, pos=0, radius=2)), name="two"))
    first = PlanCircle(
        id="xa",
        segments=(PlanSegment(sheet="s0"),
                  PlanSegment(sheet="s2", side_genus=0, side_circuits=())),
        events=(PlanEvent("c1", Fraction(1, 3), slot_in=0, slot_out=2),
                PlanEvent("c1", Fraction(2, 3), slot_in=2, slot_out=0)),
        image=ImageRoute(crossings=(("e_c1", Fraction(1, 3)),
                                    ("e_c1", Fraction(2, 3))),
                         runs=(("r1", "right"), ("r0", None))))
    return SurgeryPlan(base=base, circles=(first,),
                       patch=SurfacePatch(True, 0, 1, id="p"))


def test_contour_walk_stops_on_inconsistent_crossing_rays(monkeypatch):
    # a route ray of the first new crossing overwritten by the ray before
    # it: the contour walk meets a side twice without returning to its
    # start, and must fail past its bound instead of running forever
    resplit = ArrangementBuilder._resplit_faces

    def corrupted(self, route_edge_ids, *rest):
        xid, _ = self.edges[route_edge_ids[0]].ends[0]
        order = self.crossings[xid].order
        self.crossings[xid] = replace(self.crossings[xid],
                                      order=(order[0], order[0]) + order[2:])
        return resplit(self, route_edge_ids, *rest)

    monkeypatch.setattr(ArrangementBuilder, "_resplit_faces", corrupted)
    with pytest.raises(RuntimeError, match="does not close"):
        attach_surface(crossing_plan_on_two_circles())


def second_crossing_plan(once):
    """A circle crossing e_3 of `once`, the output of
    crossing_plan_on_two_circles, twice: an edge from crossing to crossing.
    c1 is now the sub-arcs c1.0 and c1.1 between the two new vertices, and
    e_3 is the image of c1.0."""
    edge = once.arrangement.edge("e_3")
    second = PlanCircle(
        id="xb",
        segments=(PlanSegment(sheet="s1"),
                  PlanSegment(sheet="s2.p1", side_genus=0, side_circuits=())),
        events=(PlanEvent("c1.0", Fraction(1, 3), slot_in=1, slot_out=2),
                PlanEvent("c1.0", Fraction(2, 3), slot_in=2, slot_out=1)),
        image=ImageRoute(crossings=(("e_3", Fraction(1, 3)),
                                    ("e_3", Fraction(2, 3))),
                         runs=((edge.right, None), (edge.left, None))))
    return SurgeryPlan(base=once, circles=(second,),
                       patch=SurfacePatch(True, 0, 1, id="q"))


def test_second_crossing_splits_an_edge_between_two_crossings():
    """Cross a map that already has crossings along one of its branch edges
    that runs from one crossing to another."""
    once = attach_surface(crossing_plan_on_two_circles())
    # e_3 runs from crossing x_5 to crossing x_6
    edge = once.arrangement.edge("e_3")
    assert edge.ends == (("x_5", 2), ("x_6", 0))
    plan = second_crossing_plan(once)
    assert check_attachment_hypotheses(plan).ok
    twice = attach_surface(plan)
    assert validate_born_map(twice).ok
    assert euler_characteristic(twice.polyhedron) == \
        euler_characteristic(once.polyhedron) + plan.patch.euler
    assert len(twice.polyhedron.vertices) == 4
    assert len(strand_circles(twice.polyhedron)) == \
        len(strand_circles(once.polyhedron)) + 1
    # the crossed edge is now three edges of the same curve, crossing to
    # crossing: x_5 -> first new crossing -> second new crossing -> x_6
    curve = twice.arrangement.curve(edge.curve)
    pieces = [twice.arrangement.edge(e) for e in curve.edges[:3]]
    assert pieces[0].ends[0] == ("x_5", 2) and pieces[2].ends[1] == ("x_6", 0)
    assert pieces[0].ends[1][0] == pieces[1].ends[0][0]
    assert pieces[1].ends[1][0] == pieces[2].ends[0][0]


def test_crossing_fixtures_regenerate_bit_identically():
    # route insertion pinned byte for byte: one route crossing a closed
    # edge, then one crossing an edge between two crossings
    once = attach_surface(crossing_plan_on_two_circles())
    twice = attach_surface(second_crossing_plan(once))
    for name, born in (("crossed", once), ("crossed_twice", twice)):
        for suffix, text in (("spoly", formats.emit_spoly(born.polyhedron)),
                             ("arr", formats.emit_arr(born))):
            with open(repo_path("fixtures", f"{name}.{suffix}")) as handle:
                assert handle.read() == text, f"{name}.{suffix}"


SEED_41_STEPS = """
import random
from randgen import random_iterated_map, tower_map
rng = random.Random(41)
for plan, born in random_iterated_map(rng, tower_map(rng.randint(3, 8)), 3):
    print(sum(len(c.events) for c in plan.circles))
"""


def test_iterated_surgery_through_a_minted_face_stops():
    # step 2 routes through faces that earlier steps named f_<k>; a builder
    # that names a piece of a split face like the face itself made its
    # origin chain a loop, and attach_surface never returned
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [repo_path("src"), repo_path("tests"),
                      os.environ.get("PYTHONPATH")])))
    try:
        result = subprocess.run([sys.executable, "-c", SEED_41_STEPS],
                                capture_output=True, text=True, env=env,
                                timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("three steps of iterated surgery did not stop within 20 s")
    assert result.returncode == 0, result.stderr
    events = [int(line) for line in result.stdout.splitlines()]
    assert len(events) == 3 and events[2] > 0


@pytest.mark.parametrize("seed", range(20))
def test_iterated_surgery_outputs_validate_add_chi_and_round_trip(seed):
    rng = random.Random(seed)
    born = tower_map(rng.randint(3, 8))
    for step, (plan, out) in enumerate(random_iterated_map(rng, born, 12)):
        assert plan.base is born
        assert validate_born_map(out).ok and validate_polyhedron(out.polyhedron).ok
        assert euler_characteristic(out.polyhedron) == \
            euler_characteristic(born.polyhedron) + plan.patch.euler, step
        poly = formats.parse_spoly(formats.emit_spoly(out.polyhedron))
        arr, data = formats.parse_arr(formats.emit_arr(out))
        assert poly == out.polyhedron and arr == out.arrangement, step
        assert formats.assemble_born_map(poly, arr, data) == out, step
        born = out
