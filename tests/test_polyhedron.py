from dataclasses import replace
from pathlib import Path

import pytest

from spineforge import formats
from spineforge.core import (BOUNDARY, SWAP, TRIPLE, TRIVIAL, BranchArc,
                             EndRoles, SheetSpec, SimplePolyhedron,
                             VertexSpec, Violation, WingTraversal,
                             continue_at_vertex, euler_characteristic,
                             is_normal, strand_circles, validate_polyhedron)
from spineforge.errors import InvalidPolyhedron
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_sphere_fixture, build_surgered_example,
                                build_theta)

from conftest import repo_path
from randgen import random_round_map, random_surgered_maps


def test_closed_genus2_sheet_is_valid_and_normal():
    poly = build_closed_sheet(2)
    assert validate_polyhedron(poly).ok
    assert is_normal(poly)
    assert euler_characteristic(poly) == -2


def test_theta_complex_is_valid_and_normal():
    theta = build_theta()
    assert validate_polyhedron(theta).ok
    assert is_normal(theta)


def test_triple_arc_with_two_slots_is_invalid():
    arc = BranchArc("c0", TRIPLE, None, TRIVIAL)
    sheets = tuple(
        SheetSpec(f"w{i}", True, 0, ((WingTraversal("c0", i, 1),),))
        for i in range(2))
    poly = SimplePolyhedron(sheets, (arc,), ())
    report = validate_polyhedron(poly)
    assert not report.ok
    assert any(v.code == "TripleArcDegree" for v in report.violations)


def test_swap_monodromy_rejected_by_is_normal():
    arc = BranchArc("c0", TRIPLE, None, SWAP)
    # slot 0 closes on itself; slots 1 and 2 form one circuit of length 2
    mobius_like = SheetSpec(
        "m", False, 1,
        ((WingTraversal("c0", 1, 1), WingTraversal("c0", 2, 1)),))
    disk = SheetSpec("w", True, 0, ((WingTraversal("c0", 0, 1),),))
    poly = SimplePolyhedron((disk, mobius_like), (arc,), ())
    assert validate_polyhedron(poly).ok
    assert not is_normal(poly)


def test_swap_circuit_must_respect_monodromy():
    arc = BranchArc("c0", TRIPLE, None, SWAP)
    sheets = tuple(
        SheetSpec(f"w{i}", True, 0, ((WingTraversal("c0", i, 1),),))
        for i in range(3))
    poly = SimplePolyhedron(sheets, (arc,), ())
    report = validate_polyhedron(poly)
    assert not report.ok
    assert str(report) == ("invalid: CircuitContinuity(w1): circuit 0 after "
                           "c0:1; CircuitContinuity(w2): circuit 0 after c0:2")


def reference_next(poly, trav):
    """The traversal forced after `trav`, built as a WingTraversal through
    the polyhedron's accessors: the slow statement of the rule that the
    validator checks on plain tuples."""
    arc = poly.arc(trav.arc)
    if arc.closed:
        perm = {0: 0, 1: 2, 2: 1} if arc.monodromy == SWAP else \
            {0: 0, 1: 1, 2: 2}
        return WingTraversal(arc.id, perm[trav.slot], trav.direction)
    vid, port = arc.endpoints[1 if trav.direction > 0 else 0]
    vertex = poly.vertex(vid)
    port_out, slot_out = continue_at_vertex(vertex, port, trav.slot)
    arc_out, end_out = vertex.ends[port_out]
    return WingTraversal(arc_out, slot_out, 1 if end_out == 0 else -1)


def reference_continuity(poly):
    """The CircuitContinuity violations of `poly`, in the validator's order."""
    out = []
    for sheet in poly.sheets:
        for ci, circuit in enumerate(sheet.circuits):
            for pos, trav in enumerate(circuit):
                if circuit[(pos + 1) % len(circuit)] != reference_next(poly, trav):
                    out.append(Violation("CircuitContinuity", sheet.id,
                                         f"circuit {ci} after "
                                         f"{trav.arc}:{trav.slot}"))
    return out


def with_circuits(change):
    """A mutation: for each circuit of two or more traversals (or, when
    there is none, for one circuit), `poly` with that circuit replaced by
    change(circuit, rng)."""
    def mutants(poly, rng):
        places = [(si, ci) for si, sheet in enumerate(poly.sheets)
                  for ci, circuit in enumerate(sheet.circuits)
                  if len(circuit) > 1]
        if not places:
            places = [(si, ci) for si, sheet in enumerate(poly.sheets)
                      for ci in range(len(sheet.circuits))][:1]
        for si, ci in places:
            sheet = poly.sheets[si]
            circuits = list(sheet.circuits)
            circuits[ci] = tuple(change(circuits[ci], rng))
            sheets = list(poly.sheets)
            sheets[si] = replace(sheet, circuits=tuple(circuits))
            yield replace(poly, sheets=tuple(sheets))
    return mutants


def flip_one(circuit, rng):
    at = rng.randrange(len(circuit))
    return circuit[:at] + (circuit[at].reversed(),) + circuit[at + 1:]


def rotate(circuit, rng):
    at = rng.randrange(len(circuit))
    return circuit[at:] + circuit[:at]


def swap_two(circuit, rng):
    out = list(circuit)
    i, j = rng.sample(range(len(out)), 2) if len(out) > 1 else (0, 0)
    out[i], out[j] = out[j], out[i]
    return out


def toggle_monodromy(poly, rng):
    """For each closed triple arc, `poly` with its monodromy toggled
    between trivial and swap."""
    for arc in poly.arcs:
        if arc.closed and arc.kind == TRIPLE:
            toggled = replace(arc, monodromy=TRIVIAL if arc.monodromy == SWAP
                              else SWAP)
            yield replace(poly, arcs=tuple(toggled if a is arc else a
                                           for a in poly.arcs))


def exchange_slots(poly, rng):
    """For one random triple arc, `poly` with the wings in two of its slots
    trading places."""
    triple = [arc for arc in poly.arcs if arc.kind == TRIPLE]
    if not triple:
        return
    aid = rng.choice(triple).id
    s, t = rng.sample(range(3), 2)
    swap = {s: t, t: s}

    def moved(trav):
        if trav.arc != aid or trav.slot not in swap:
            return trav
        return replace(trav, slot=swap[trav.slot])
    yield replace(poly, sheets=tuple(
        replace(sheet, circuits=tuple(tuple(moved(t) for t in circuit)
                                      for circuit in sheet.circuits))
        for sheet in poly.sheets))


MUTATIONS = [with_circuits(flip_one), with_circuits(lambda c, rng: c[::-1]),
             with_circuits(rotate), with_circuits(swap_two),
             toggle_monodromy, exchange_slots]


def test_circuit_continuity_matches_the_reference_rule(rng):
    polys = [build_theta(), build_closed_sheet(2),
             build_closed_sheet(1, orientable=False),
             build_base_example().polyhedron,
             build_surgered_example().polyhedron,
             build_sphere_fixture().polyhedron]
    for name in ("roundmap", "surgered", "crossed", "crossed_twice"):
        polys.append(formats.parse_spoly(
            Path(repo_path("fixtures", f"{name}.spoly")).read_text()))
    polys += [random_round_map(rng, name=f"c{i}").polyhedron
              for i in range(100)]
    polys += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    broken = {"closed": 0, "open": 0}
    for poly in polys:
        assert validate_polyhedron(poly).ok
        for mutant in (m for mutate in MUTATIONS for m in mutate(poly, rng)):
            expected = reference_continuity(mutant)
            # every mutation keeps each wing slot filled once, so the
            # validator reaches its continuity pass
            assert validate_polyhedron(mutant).violations == tuple(expected)
            for violation in expected:
                aid = violation.detail.split(" after ")[1].rsplit(":", 1)[0]
                broken["closed" if mutant.arc(aid).closed else "open"] += 1
    # breaks after closed circles and after arcs that end at vertices
    assert broken["closed"] and broken["open"]


def test_base_example_validates_with_six_circles():
    born = build_base_example()
    assert validate_polyhedron(born.polyhedron).ok
    assert is_normal(born.polyhedron)
    circles = strand_circles(born.polyhedron)
    assert len(circles) == 6
    kinds = sorted(born.polyhedron.arc(c[0]).kind for c in circles)
    assert kinds.count(TRIPLE) == 4
    assert kinds.count(BOUNDARY) == 2
    assert len(born.polyhedron.vertices) == 0


def test_surgered_example_is_normal():
    born = build_surgered_example()
    assert validate_polyhedron(born.polyhedron).ok
    assert is_normal(born.polyhedron)


def test_boundary_arc_must_be_closed():
    # a boundary arc pretending to end at a vertex is rejected
    arc = BranchArc("b", BOUNDARY, (("v", 0), ("v", 1)), TRIVIAL)
    sheet = SheetSpec("s", True, 0, ((WingTraversal("b", 0, 1),),))
    vertex = VertexSpec("v", (("b", 0), ("b", 1), ("b", 0), ("b", 1)),
                        (EndRoles(0, 1, 2),) * 4)
    poly = SimplePolyhedron((sheet,), (arc,), (vertex,))
    report = validate_polyhedron(poly)
    assert not report.ok
    assert any(v.code == "BoundaryArcOpen" for v in report.violations)


def test_slot_degrees_on_fixtures_and_random_instances(rng):
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [random_round_map(rng, name=f"deg{i}").polyhedron
              for i in range(20)]
    for poly in cases:
        filled = {}
        for sheet in poly.sheets:
            for circuit in sheet.circuits:
                for trav in circuit:
                    filled[(trav.arc, trav.slot)] = \
                        filled.get((trav.arc, trav.slot), 0) + 1
        for arc in poly.arcs:
            want = 1 if arc.kind == BOUNDARY else 3
            got = sum(1 for (aid, _s), n in filled.items() if aid == arc.id)
            assert got == want
            assert all(n == 1 for (aid, _s), n in filled.items()
                       if aid == arc.id)


def test_vertex_continuation_is_an_involution():
    surgered = None
    # build a vertex-ful polyhedron through a crossing surgery
    import random
    from randgen import random_crossing_plan
    from spineforge.surgery import attach_surface
    local = random.Random(7)
    for _ in range(50):
        born = random_round_map(local)
        plan = random_crossing_plan(local, born)
        if plan is not None:
            surgered = attach_surface(plan)
            break
    assert surgered is not None
    poly = surgered.polyhedron
    assert poly.vertices
    for vertex in poly.vertices:
        for port in range(4):
            for slot in range(3):
                port2, slot2 = continue_at_vertex(vertex, port, slot)
                back = continue_at_vertex(vertex, port2, slot2)
                assert back == (port, slot)
        # quadrant cycle: the two slots bound to one quadrant are mutual
        for port in range(4):
            roles = vertex.roles[port]
            nxt = (port + 1) % 4
            assert continue_at_vertex(vertex, port, roles.lq) == \
                (nxt, vertex.roles[nxt].rq)


def test_operations_reject_invalid_input():
    arc = BranchArc("c0", TRIPLE, None, TRIVIAL)
    sheet = SheetSpec("w", True, 0, ((WingTraversal("c0", 0, 1),),))
    poly = SimplePolyhedron((sheet,), (arc,), ())
    with pytest.raises(InvalidPolyhedron):
        euler_characteristic(poly)
    with pytest.raises(InvalidPolyhedron):
        is_normal(poly)
    with pytest.raises(InvalidPolyhedron):
        strand_circles(poly)
