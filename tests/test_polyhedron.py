import pytest

from spineforge.core import (BOUNDARY, SWAP, TRIPLE, TRIVIAL, BranchArc,
                             EndRoles, SheetSpec, SimplePolyhedron,
                             VertexSpec, WingTraversal, continue_at_vertex,
                             euler_characteristic, is_normal, strand_circles,
                             validate_polyhedron)
from spineforge.errors import InvalidPolyhedron
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_surgered_example, build_theta)

from randgen import random_round_map


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
    assert any(v.code == "CircuitContinuity" for v in report.violations)


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
