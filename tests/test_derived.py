"""The per-object derived data: wing table, strand partition and map,
closed-surface index and cached reports.

Polyhedra and arrangements are frozen, so each keeps its validation report
and incidence tables once they are built.  Born maps carry plain dicts and
are checked again on every call.
"""

from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from spineforge import formats, subsurfaces
from spineforge.arrangement import validate_arrangement
from spineforge.bornmap import realizability_certificate, validate_born_map
from spineforge.core import (BOUNDARY, SimplePolyhedron, slot_count,
                             strand_circles, validate_polyhedron)
from spineforge.errors import InvalidBornMap
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_sphere_fixture, build_surgered_example,
                                build_theta)
from spineforge.obstruction import (DiskInP, disk_obstruction_report,
                                    s3_obstruction)
from spineforge.render import render_svg
from spineforge.subsurfaces import (find_closed_surfaces,
                                    nonorientable_selections)

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
            wings = poly._wings[arc.id]
            assert sorted(wings) == list(range(slot_count(arc.kind)))
            for slot, wing in wings.items():
                # every traversal of the wing, found by scanning circuits
                scanned = [(sheet.id, trav.direction)
                           for sheet in poly.sheets
                           for circuit in sheet.circuits
                           for trav in circuit
                           if (trav.arc, trav.slot) == (arc.id, slot)]
                assert scanned == [wing]
            open_arcs += not arc.closed
        strand_of = poly._strand_of
        assert sorted(strand_of) == sorted(arc.id for arc in poly.arcs)
        for circle in strand_circles(poly):
            assert {strand_of[aid] for aid in circle} == {circle[0]}
    assert open_arcs  # surgery outputs with vertices were covered


def scanned_strands(poly):
    """The strand circles found by a graph search over the arcs joined
    straight through at vertices."""
    joined = {arc.id: [] for arc in poly.arcs}
    for vertex in poly.vertices:
        for (a, _), (b, _) in vertex.strands:
            joined[a].append(b)
            joined[b].append(a)
    circles, seen = [], set()
    for arc in poly.arcs:
        stack, circle = [arc.id], set()
        while stack:
            aid = stack.pop()
            if aid not in circle and aid not in seen:
                circle.add(aid)
                stack.extend(joined[aid])
        seen |= circle
        if circle:
            circles.append(tuple(sorted(circle)))
    return sorted(circles)


def scanned_index(poly):
    """The closed-surface index, from the sheets' circuits; each arc a
    candidate lies on is given without its sign relation."""
    wings = sorted((a, trav.slot, sheet.id)
                   for a, arc in enumerate(poly.arcs)
                   for sheet in poly.sheets for circuit in sheet.circuits
                   for trav in circuit if trav.arc == arc.id)
    banned = {sid for a, _, sid in wings if poly.arcs[a].kind == BOUNDARY}
    order = sorted((s.id for s in poly.sheets if s.id not in banned),
                   reverse=True)
    wings = [w for w in wings if w[2] not in banned]
    arcs = range(len(poly.arcs))
    # on[i][a]: the number of wings candidate i has on arc a
    on = [[sum(w[:1] + w[2:] == (a, sid) for w in wings) for a in arcs]
          for sid in order]

    def mask(a, test):
        return sum(1 << i for i, counts in enumerate(on) if test(counts[a]))

    return dict(
        order=order,
        nonorientable=[not poly.sheet(sid).orientable for sid in order],
        single=[mask(a, lambda n: n == 1) for a in arcs],
        odd=[sum(1 << a for a in arcs if counts[a] == 1) for counts in on],
        arcs_of=[[(mask(a, bool), mask(a, lambda n: n >= 2), counts[a])
                  for a in arcs if counts[a]] for counts in on])


def test_closed_surface_index_and_strand_partition_match_direct_scans(rng):
    for poly in derived_cases(rng):
        assert strand_circles(poly) == scanned_strands(poly)
        index = subsurfaces._index(poly)
        for field, value in scanned_index(poly).items():
            got = getattr(index, field)
            if field == "arcs_of":
                got = [[arc[:3] for arc in arcs] for arcs in got]
            assert got == value, field


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


def test_index_and_strand_partition_are_built_once_per_object(monkeypatch):
    builds, built = [], []  # `built` keeps each object, so ids stay unique
    index_type = subsurfaces._Index

    def counted_index(*fields):
        builds.append(("index", tuple(fields[0])))
        return index_type(*fields)

    strands = SimplePolyhedron.__dict__["_strands"]

    def counted_strands(poly):
        builds.append(("strands", id(poly)))
        built.append(poly)
        return strands.func(poly)

    counted = cached_property(counted_strands)
    counted.__set_name__(SimplePolyhedron, "_strands")
    monkeypatch.setattr(subsurfaces, "_Index", counted_index)
    monkeypatch.setattr(SimplePolyhedron, "_strands", counted)

    base, surgered = build_base_example(), build_surgered_example()
    poly = surgered.polyhedron
    disks = (DiskInP(id="d1", boundary_circle="inner_cut",
                     sheets=("i_band",)),
             DiskInP(id="d2", boundary_circle="outer_cut",
                     sheets=("i_band", "i_floor"),
                     arcs=(("c8", 0, 1, False),)))
    for _ in range(2):
        search = find_closed_surfaces(poly, 10 ** 6)
        verdict = s3_obstruction(poly, 10 ** 6)
        report = disk_obstruction_report(base, disks, surgered,
                                         closed_submanifold=True)
        assert validate_born_map(surgered).ok
        circles = strand_circles(poly)
        certificate = realizability_certificate(surgered, 4)
        assert verdict[0] == report.verdict == "obstructed"
        assert verdict[1] == report.nonorientable_selections[0] \
            == next(s for s in search.selections if not s.orientable)
        assert certificate.singular_components == len(circles) == 8
        circles.append("changed")  # a fresh list: the partition is kept
    # the surgery inside build_surgered_example read the strands of its own
    # base and of its output, which the later calls reuse
    counts = Counter(builds)
    assert set(counts.values()) == {1}
    assert counts[("index", tuple(subsurfaces._index(poly).order))] == 1
    assert counts[("strands", id(poly))] == 1
    assert counts[("strands", id(base.polyhedron))] == 1


@pytest.mark.parametrize("reversed_order", [False, True])
def test_closed_search_walks_once_per_object(monkeypatch, reversed_order):
    walks = []
    walk = subsurfaces._walk

    def counted_walk(index, bound):
        walks.append(bound)
        return walk(index, bound)

    monkeypatch.setattr(subsurfaces, "_walk", counted_walk)
    base, surgered = build_base_example(), build_surgered_example()
    poly = surgered.polyhedron
    disks = (DiskInP(id="d1", boundary_circle="inner_cut",
                     sheets=("i_band",)),
             DiskInP(id="d2", boundary_circle="outer_cut",
                     sheets=("i_band", "i_floor"),
                     arcs=(("c8", 0, 1, False),)))
    calls = [lambda: find_closed_surfaces(poly, 10 ** 6).selections,
             lambda: s3_obstruction(poly, 10 ** 6)[:2],
             lambda: tuple(nonorientable_selections(poly, 10 ** 6)[0]),
             lambda: disk_obstruction_report(
                 base, disks, surgered, closed_submanifold=True
             ).nonorientable_selections]
    if reversed_order:
        calls.reverse()
    outcomes = [call() for call in calls]
    # the report searches with its default bound, 10**5, which the walk
    # fits in as it fits in 10**6
    assert walks == [10 ** 5 if reversed_order else 10 ** 6]
    if reversed_order:
        outcomes.reverse()
    search, verdict, bad, reported = outcomes
    assert verdict == ("obstructed", bad[0])
    assert bad == reported == tuple(s for s in search if not s.orientable)
