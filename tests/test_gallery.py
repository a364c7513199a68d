from dataclasses import replace
from fractions import Fraction

import pytest

from spineforge.bornmap import region_counts, validate_born_map
from spineforge.core import euler_characteristic, is_normal, validate_polyhedron
from spineforge.errors import PlanError
from spineforge.gallery import (BASE_SPEC, RoundCircle, RoundSpec,
                                build_base_example, build_sphere_fixture,
                                build_surgered_example, klein_plan,
                                round_reeb)
from spineforge.surgery import attach_surface


def test_every_gallery_output_validates():
    for born in (build_base_example(), build_surgered_example(),
                 build_sphere_fixture(), round_reeb(BASE_SPEC)):
        assert validate_polyhedron(born.polyhedron).ok
        assert is_normal(born.polyhedron)
        assert validate_born_map(born).ok


def test_round_reeb_single_boundary_circle():
    born = round_reeb(RoundSpec(circles=(
        RoundCircle("boundary", 1, 0, pos=0, radius=1),), name="one"))
    assert len(born.polyhedron.sheets) == 1
    sheet = born.polyhedron.sheets[0]
    assert sheet.orientable and sheet.genus == 0
    assert len(sheet.circuits) == 1
    assert list(born.fiber_counts.values()).count(1) == 1


def test_round_reeb_matches_base_example_up_to_relabeling():
    generic = round_reeb(BASE_SPEC).polyhedron
    named = build_base_example().polyhedron
    rename = {"s0": "o_cap", "s1": "i_cap", "s2": "i_floor", "s3": "o_floor",
              "s4": "tube", "s5": "i_band", "s6": "o_band", "s7": "rim_in",
              "s8": "rim_out"}
    assert (generic.arcs, generic.vertices) == (named.arcs, named.vertices)
    assert [rename[s.id] for s in generic.sheets] == [s.id for s in named.sheets]
    # renamed, each sheet is the named one in one of its two orientations
    for sheet, other in zip(generic.sheets, named.sheets):
        flipped = tuple(tuple(t.reversed() for t in reversed(circuit))
                        for circuit in sheet.circuits)
        assert other in (replace(sheet, id=other.id),
                         replace(sheet, id=other.id, circuits=flipped))


def test_round_reeb_rejects_count_jump_of_two():
    with pytest.raises(PlanError) as info:
        round_reeb(RoundSpec(circles=(
            RoundCircle("triple", 2, 0, pos=0, radius=1),), name="bad"))
    assert info.value.code == "CountRule"


def test_round_reeb_rejects_broken_chain():
    with pytest.raises(PlanError):
        round_reeb(RoundSpec(circles=(
            RoundCircle("boundary", 1, 0, pos=0, radius=1),
            RoundCircle("boundary", 1, 0, pos=0, radius=2)), name="bad"))


@pytest.mark.parametrize("circles, message", [
    # two lines at the center: a merge needs pos + 1 < 2
    ((RoundCircle("triple", 2, 1, pos=1), RoundCircle("boundary", 1, 0)),
     "circle 0: merge position 1"),
    ((RoundCircle("triple", 2, 1, pos=-1), RoundCircle("boundary", 1, 0)),
     "circle 0: merge position -1"),
    ((RoundCircle("boundary", 0, 1), RoundCircle("triple", 1, 2, pos=1),
      RoundCircle("boundary", 2, 1), RoundCircle("boundary", 1, 0)),
     "circle 1: split position 1"),
    ((RoundCircle("boundary", 1, 0, pos=1),), "circle 0: end position 1"),
    ((RoundCircle("boundary", 0, 1, pos=1), RoundCircle("boundary", 1, 0)),
     "circle 0: start position 1"),
])
def test_round_reeb_rejects_event_positions_off_the_stack(circles, message):
    with pytest.raises(PlanError) as info:
        round_reeb(RoundSpec(circles=circles, name="bad"))
    assert info.value.code == "CountRule"
    assert str(info.value) == message


@pytest.mark.parametrize("circles, message", [
    ((RoundCircle("triple", 1, 2, radius=2), RoundCircle("triple", 2, 1),
      RoundCircle("boundary", 1, 0)), "circles 0 and 1 both name arc c2"),
    # c<radius> keeps six significant digits
    ((RoundCircle("boundary", 0, 1, radius=1.0000001),
      RoundCircle("boundary", 1, 0, radius=1.0000002)),
     "circles 0 and 1 both name arc c1"),
])
def test_round_reeb_refuses_two_circles_naming_one_arc(circles, message):
    # the map used to be built, and failed validation with DuplicateId
    with pytest.raises(PlanError) as info:
        round_reeb(RoundSpec(circles=circles, name="bad"))
    assert info.value.code == "DuplicateId"
    assert str(info.value) == message


def test_round_reeb_writes_a_fraction_radius_as_it_writes_a_float():
    # the labels' `:g` format raised TypeError for a Fraction on Python
    # 3.11, and the arc id fell back to c<index>, c0 here
    born = round_reeb(RoundSpec(circles=(
        RoundCircle("boundary", 1, 0, radius=Fraction(3, 2)),), name="half"))
    assert [arc.id for arc in born.polyhedron.arcs] == ["c1.5"]
    assert [face.label for face in born.arrangement.faces] == ["r<1.5",
                                                               "r>1.5"]


def test_round_reeb_refuses_a_radius_that_is_no_real_number():
    with pytest.raises(PlanError) as info:
        round_reeb(RoundSpec(circles=(RoundCircle("boundary", 1, 0,
                                                  radius="1"),), name="bad"))
    assert info.value.code == "RadiusRule"
    assert str(info.value) == "circle 0: radius '1' is not a real number"


@pytest.mark.parametrize("circle, message", [
    (RoundCircle("triple", -1, 0), "circle 0: negative count"),
    (RoundCircle("boundary", 2, 1), "outermost outside count must be 0"),
    (RoundCircle("weird", 1, 0), "circle 0: kind weird with jump -1"),
])
def test_round_reeb_rejects_bad_counts_and_kinds(circle, message):
    with pytest.raises(PlanError) as info:
        round_reeb(RoundSpec(circles=(circle,), name="bad"))
    assert info.value.code == "CountRule"
    assert str(info.value) == message


def test_round_reeb_numbers_more_than_ten_thousand_lines():
    # a tower of 5001 circles has 10001 fiber lines, hence sheets
    n = 5001
    circles = tuple(RoundCircle("boundary" if k == 0 else "triple", k + 1, k)
                    for k in reversed(range(n)))
    born = round_reeb(RoundSpec(circles, name="tall"))
    assert len(born.polyhedron.sheets) == 2 * n - 1
    assert born.polyhedron.sheets[-1].id == f"s{2 * n - 2}"
    assert validate_born_map(born).ok


def test_surgered_example_equals_attach_on_plan():
    direct = attach_surface(klein_plan(build_base_example()))
    built = build_surgered_example()
    assert built == direct


def test_empty_polyhedron_over_empty_arrangement():
    from conftest import empty_arrangement
    from spineforge.bornmap import BornMap
    from spineforge.core import SimplePolyhedron
    born = BornMap(polyhedron=SimplePolyhedron((), (), (), name="empty"),
                   arrangement=empty_arrangement(), assignments={},
                   fiber_counts={"f_out": 0}, vertex_crossings={},
                   name="empty")
    assert validate_born_map(born).ok
    assert list(region_counts(born).values()) == [0]


def test_base_example_euler():
    assert euler_characteristic(build_base_example().polyhedron) == 4
