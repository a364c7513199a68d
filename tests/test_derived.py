"""The per-object derived data: wing table, strand map and cached reports.

Polyhedra and arrangements are frozen, so each keeps its validation report
and incidence tables once they are built.  Born maps carry plain dicts and
are checked again on every call.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from spineforge import formats
from spineforge.arrangement import validate_arrangement
from spineforge.bornmap import validate_born_map
from spineforge.core import (arc_wings, slot_count, strand_circles,
                             validate_polyhedron)
from spineforge.errors import InvalidBornMap
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_sphere_fixture, build_surgered_example,
                                build_theta)
from spineforge.render import render_svg

from conftest import repo_path
from randgen import random_round_map, random_surgered_maps
from test_subsurfaces import tower


def derived_cases(rng):
    """Gallery maps, the fixtures, towers n=4..16, 100 random round maps
    and 100 random surgery outputs."""
    polys = [build_theta(), build_closed_sheet(2),
             build_closed_sheet(1, orientable=False),
             build_base_example().polyhedron,
             build_surgered_example().polyhedron,
             build_sphere_fixture().polyhedron]
    for name in ("roundmap.spoly", "surgered.spoly"):
        polys.append(formats.parse_spoly(
            Path(repo_path("fixtures", name)).read_text()))
    polys += [tower(n) for n in range(4, 17)]
    polys += [random_round_map(rng, name=f"d{i}").polyhedron
              for i in range(100)]
    polys += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    return polys


def test_wing_table_and_strand_map_match_direct_scans(rng):
    open_arcs = 0
    for poly in derived_cases(rng):
        assert validate_polyhedron(poly).ok
        for arc in poly.arcs:
            wings = arc_wings(poly, arc.id)
            assert sorted(wings) == list(range(slot_count(arc.kind)))
            for slot, wing in wings.items():
                # every traversal of the wing, found by scanning circuits
                scanned = [(sheet.id, ci, pos, trav.direction)
                           for sheet in poly.sheets
                           for ci, circuit in enumerate(sheet.circuits)
                           for pos, trav in enumerate(circuit)
                           if (trav.arc, trav.slot) == (arc.id, slot)]
                assert scanned == [wing]
            open_arcs += not arc.closed
        strand_of = poly._strand_of
        assert sorted(strand_of) == sorted(arc.id for arc in poly.arcs)
        for circle in strand_circles(poly):
            assert {strand_of[aid] for aid in circle} == {circle[0]}
    assert open_arcs  # surgery outputs with vertices were covered


def test_polyhedron_report_is_cached_per_object():
    poly = build_base_example().polyhedron
    report = validate_polyhedron(poly)
    assert report.ok
    assert validate_polyhedron(poly) is report
    copy = replace(poly)
    assert validate_polyhedron(copy) == report
    assert copy == poly and hash(copy) == hash(poly)
    assert repr(copy) == repr(poly)
    # a broken copy of a validated polyhedron gets its own report:
    # dropping a sheet leaves that sheet's wings unfilled
    broken = replace(poly, sheets=poly.sheets[1:])
    codes = {v.code for v in validate_polyhedron(broken).violations}
    assert codes & {"TripleArcDegree", "BoundaryArcDegree"}
    assert validate_polyhedron(poly) is report


def test_arrangement_report_is_cached_per_object():
    arr = build_base_example().arrangement
    report = validate_arrangement(arr)
    assert report.ok
    assert validate_arrangement(arr) is report
    assert validate_arrangement(replace(arr)) == report
    broken = replace(arr, faces=arr.faces[1:])
    assert not validate_arrangement(broken).ok
    assert validate_arrangement(arr) is report


def test_born_map_is_checked_again_after_an_in_place_change():
    born = build_base_example()
    assert validate_born_map(born).ok
    render_svg(born)
    born.fiber_counts["r1"] += 1  # 5 -> 6: jump of 2 across c1
    report = validate_born_map(born)
    assert not report.ok
    assert any(v.code == "CrossingRule" for v in report.violations)
    with pytest.raises(InvalidBornMap):
        render_svg(born)
