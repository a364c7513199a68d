import itertools

import pytest

from spineforge.errors import (DiskBranchHypothesisFailed, NoMaximalGraph,
                               NonOrientableSheetMeetsDisk, PlanError,
                               SeedNotInGraph)
from spineforge.gallery import (build_base_example, build_surgered_example,
                                build_theta)
from spineforge.obstruction import (DiskInP, EmbeddingWitness, GraphEdge,
                                    IncidenceGraph, build_graph,
                                    disk_obstruction_report, graph_to_dot,
                                    heegaard_target, maximal_graph,
                                    orient_sheets, s3_obstruction)

from spineforge.subsurfaces import find_closed_surfaces

from randgen import random_round_map, random_surgered_maps


def example_disks():
    return (DiskInP(id="d1", boundary_circle="inner_cut", sheets=("o_floor",)),
            DiskInP(id="d2", boundary_circle="outer_cut", sheets=("i_band",)))


def test_disk_inside_single_sheet():
    born = build_base_example()
    graph = build_graph(born, example_disks()[0])
    assert graph.vertices == ("o_floor",)
    assert graph.edges == ()


def test_disk_straddling_an_arc():
    born = build_base_example()
    disk = DiskInP(id="d", boundary_circle="x", sheets=("i_band", "i_floor"),
                   arcs=(("c8", 0, 1, False),))
    graph = build_graph(born, disk)
    assert graph.vertices == ("i_band", "i_floor")
    assert len(graph.edges) == 1
    assert graph.edges[0].arc == "c8"


def test_disk_arc_entry_off_its_sheets_adds_no_edge():
    # c1's wings lie on tube, i_band and i_cap, none of them the disk's
    disk = DiskInP(id="d", boundary_circle="x", sheets=("o_cap",),
                   arcs=(("c1", 0, 1, False),))
    graph = build_graph(build_base_example(), disk)
    assert graph.vertices == ("o_cap",)
    assert graph.edges == ()


@pytest.mark.parametrize("sheets, arcs, code", [
    (("i_band", "nope"), (), "UnknownSheet"),
    (("i_band", "i_floor"), (("zz", 0, 1, False),), "UnknownArc"),
    (("i_band", "i_floor"), (("c8", 0, 7, False),), "UnknownSlot"),
])
def test_build_graph_rejects_what_the_polyhedron_lacks(sheets, arcs, code):
    disk = DiskInP(id="d", boundary_circle="x", sheets=sheets, arcs=arcs)
    with pytest.raises(PlanError) as caught:
        build_graph(build_base_example(), disk)
    assert caught.value.code == code
    assert str(caught.value).startswith(f"{code}(x)")


def test_nonorientable_hypothesis_error():
    surgered = build_surgered_example()
    # fake a non-orientable sheet id by patching the disk onto the Klein
    # carrier: use the surgered map with a disk meeting the patch sheet
    # (orientable), then check the explicit error with a doctored sheet list
    from dataclasses import replace
    poly = surgered.polyhedron
    sheets = tuple(
        replace(s, orientable=False, genus=1) if s.id == "patch" else s
        for s in poly.sheets)
    doctored = replace(surgered, polyhedron=replace(
        poly, sheets=sheets))
    disk = DiskInP(id="d", boundary_circle="x", sheets=("patch",))
    with pytest.raises(NonOrientableSheetMeetsDisk):
        build_graph(doctored, disk)


def test_example_disks_have_disjoint_vertex_sets():
    born = build_base_example()
    graphs = [build_graph(born, d) for d in example_disks()]
    assert set(graphs[0].vertices).isdisjoint(graphs[1].vertices)
    assert maximal_graph(graphs) is None


def test_maximal_graph_identical_pair():
    g = IncidenceGraph(disk="d", vertices=("a", "b"),
                       edges=(GraphEdge("c", "a", 0, "b", 1),))
    assert maximal_graph([g, g]) == 0


def test_maximal_graph_containment():
    small = IncidenceGraph(disk="d1", vertices=("a",), edges=())
    big = IncidenceGraph(disk="d2", vertices=("a", "b"),
                         edges=(GraphEdge("c", "a", 0, "b", 1),))
    assert maximal_graph([small, big]) == 1
    assert maximal_graph([big, small]) == 0


def test_maximal_graph_absent_for_incomparable(rng):
    names = ["s1", "s2", "s3", "s4"]
    for _ in range(200):
        va = frozenset(rng.sample(names, rng.randint(1, 4)))
        vb = frozenset(rng.sample(names, rng.randint(1, 4)))
        ga = IncidenceGraph("a", tuple(sorted(va)), ())
        gb = IncidenceGraph("b", tuple(sorted(vb)), ())
        result = maximal_graph([ga, gb])
        if va <= vb or vb <= va:
            assert result is not None
        else:
            assert result is None


def brute_force_orientation(born, graph, seed):
    poly = born.polyhedron
    sheets = list(graph.vertices)
    seed_sheet, seed_sign = seed
    constraints = []
    for edge in graph.edges:
        table = poly._wings[edge.arc]
        d_a = table[edge.slot_a][1]
        d_b = table[edge.slot_b][1]
        constraints.append((edge.sheet_a, edge.sheet_b,
                            1 if d_a != d_b else -1))
    for signs in itertools.product((1, -1), repeat=len(sheets)):
        assign = dict(zip(sheets, signs))
        if assign[seed_sheet] != seed_sign:
            continue
        if all(assign[a] * assign[b] == rel for a, b, rel in constraints):
            return assign
    return None


def test_orient_sheets_chain():
    born = build_base_example()
    disk = DiskInP(id="d", boundary_circle="x",
                   sheets=("i_cap", "tube", "i_band"),
                   arcs=(("c1", 2, 0, False), ("c1", 2, 1, False)))
    graph = build_graph(born, disk)
    assert len(graph.edges) == 2
    kind, assignment = orient_sheets(born, graph, ("i_cap", 1))
    assert kind == "oriented"
    assert assignment["i_cap"] == 1
    assert set(assignment) == {"i_cap", "tube", "i_band"}
    oracle = brute_force_orientation(born, graph, ("i_cap", 1))
    assert oracle is not None
    assert assignment == oracle


def test_orient_sheets_single_vertex():
    born = build_base_example()
    graph = build_graph(born, example_disks()[0])
    kind, assignment = orient_sheets(born, graph, ("o_floor", -1))
    assert kind == "oriented"
    assert assignment == {"o_floor": -1}


def test_orient_sheets_contradiction():
    surgered = build_surgered_example()
    # edges tracing the Klein cycle: tube-i_band via c1 carries the twist
    disk = DiskInP(
        id="d", boundary_circle="x",
        sheets=("i_band", "tube", "o_band", "o_floor", "patch"),
        arcs=(("c1", 0, 1, False),      # tube vs i_band (cut piece keeps id)
              ("c2", 1, 2, False),      # tube vs o_band
              ("c10", 0, 1, False),     # o_band vs o_floor
              ("t_inner_cut", 0, 2, False),   # patch vs the cut floor
              ("t_outer_cut", 0, 2, False)))  # patch vs the cut band
    # build the graph over the surgered polyhedron where ids match
    graph = build_graph(surgered, disk)
    assert len(graph.edges) == 5
    outcome = orient_sheets(surgered, graph, ("patch", 1))
    assert outcome[0] == "contradiction"
    assert outcome[1]  # a witness cycle of arcs
    assert brute_force_orientation(surgered, graph, ("patch", 1)) is None


def test_orient_sheets_contradiction_cycle_stops_at_common_ancestor():
    born = build_base_example()
    disk = DiskInP(id="d", boundary_circle="x",
                   sheets=("i_band", "i_cap", "o_cap", "tube"),
                   arcs=(("c2", 0, 1, False), ("c1", 2, 0, False),
                         ("c1", 2, 1, False), ("c1", 0, 1, False)))
    graph = build_graph(born, disk)
    # o_cap hangs off tube by c2, which lies on no odd cycle
    assert orient_sheets(born, graph, ("o_cap", 1)) == \
        ("contradiction", ("c1", "c1", "c1"))


def test_orient_sheets_agrees_with_enumeration(rng):
    for trial in range(60):
        born = random_round_map(rng, name=f"og{trial}")
        poly = born.polyhedron
        if len(poly.sheets) < 2 or len(poly.sheets) > 12:
            continue
        # random disk data: a connected batch of sheets joined by arcs
        arcs = []
        sheets = set()
        for arc in poly.arcs:
            wings = poly._wings[arc.id]
            slots = sorted(wings)
            if len(slots) >= 2 and rng.random() < 0.6:
                a, b = rng.sample(slots, 2)
                if wings[a][0] != wings[b][0]:
                    arcs.append((arc.id, a, b, False))
                    sheets.add(wings[a][0])
                    sheets.add(wings[b][0])
        if not sheets:
            continue
        disk = DiskInP(id="d", boundary_circle="x",
                       sheets=tuple(sorted(sheets)), arcs=tuple(arcs))
        graph = build_graph(born, disk)
        seed = (graph.vertices[0], 1)
        outcome = orient_sheets(born, graph, seed)
        oracle = brute_force_orientation(born, graph, seed)
        if outcome[0] == "oriented":
            # the propagated component must match an oracle solution when
            # the whole graph is connected
            reached = set(outcome[1])
            if reached == set(graph.vertices):
                assert oracle is not None
        else:
            assert oracle is None


def test_seed_not_in_graph():
    born = build_base_example()
    graph = build_graph(born, example_disks()[0])
    with pytest.raises(SeedNotInGraph):
        orient_sheets(born, graph, ("rim_in", 1))


def test_heegaard_target_formula():
    for genus in range(6):
        for circles in range(1, 7):
            target = heegaard_target(EmbeddingWitness(genus), circles)
            assert target.summand_count == circles - 1
            assert target.base_genus == genus


def test_heegaard_target_twisted_flags():
    target = heegaard_target(EmbeddingWitness(2), 4,
                             twisted=(True, False, True))
    assert target.summands == (True, False, True)
    assert "twisted" in target.describe()


def test_heegaard_disk_hypothesis():
    clean = DiskInP(id="d", boundary_circle="x", sheets=("s",), arcs=())
    interval = DiskInP(id="d", boundary_circle="x", sheets=("s", "t"),
                       arcs=(("c", 0, 1, False),))
    full = DiskInP(id="d", boundary_circle="x", sheets=("s", "t"),
                   arcs=(("c", 0, 1, True),))
    heegaard_target(EmbeddingWitness(0), 2, disks=[clean, interval])
    with pytest.raises(DiskBranchHypothesisFailed):
        heegaard_target(EmbeddingWitness(0), 2, disks=[full])
    two = DiskInP(id="d", boundary_circle="x", sheets=("s", "t"),
                  arcs=(("c", 0, 1, False), ("c2", 0, 1, False)))
    with pytest.raises(DiskBranchHypothesisFailed):
        heegaard_target(EmbeddingWitness(0), 2, disks=[two])


def test_s3_obstruction_verdicts():
    theta = build_theta()
    verdict, witness, truncated = s3_obstruction(theta, 10 ** 5)
    assert verdict == "not-obstructed"
    assert witness is None

    surgered = build_surgered_example()
    verdict, witness, truncated = s3_obstruction(surgered.polyhedron, 10 ** 5)
    assert verdict == "obstructed"
    assert not witness.orientable
    assert witness.euler == 0

    from spineforge.gallery import build_closed_sheet
    crosscap = build_closed_sheet(1, orientable=False)
    verdict, witness, _ = s3_obstruction(crosscap, 10 ** 5)
    assert verdict == "obstructed"


def test_s3_witness_is_the_first_nonorientable_selection(rng):
    verdicts = set()
    for born in random_surgered_maps(rng, 100):
        poly = born.polyhedron
        for bound in (3, 50, 10 ** 6):
            search = find_closed_surfaces(poly, bound)
            first = next((s for s in search.selections if not s.orientable),
                         None)
            verdict = "not-obstructed" if first is None else "obstructed"
            assert s3_obstruction(poly, bound) == (verdict, first,
                                                   search.truncated)
            verdicts.add((verdict, search.truncated))
    assert len(verdicts) == 4


def test_disk_obstruction_report_requires_maximal_graph():
    born = build_base_example()
    surgered = build_surgered_example()
    with pytest.raises(NoMaximalGraph):
        disk_obstruction_report(born, example_disks(), surgered)


def test_disk_obstruction_report_obstructed_with_nested_graphs():
    born = build_base_example()
    surgered = build_surgered_example()
    disks = (DiskInP(id="d1", boundary_circle="inner_cut",
                     sheets=("i_band",)),
             DiskInP(id="d2", boundary_circle="outer_cut",
                     sheets=("i_band", "i_floor"),
                     arcs=(("c8", 0, 1, False),)))
    report = disk_obstruction_report(born, disks, surgered, closed_submanifold=True)
    assert report.maximal_index == 1
    assert report.orientation is not None
    assert report.verdict == "obstructed"
    assert report.nonorientable_selections


def test_disk_obstruction_report_negative_verdict():
    # a surgered map whose subsurfaces are all orientable
    born = build_base_example()
    disks = (DiskInP(id="d1", boundary_circle="a", sheets=("i_band",)),
             DiskInP(id="d2", boundary_circle="b",
                     sheets=("i_band", "i_floor"),
                     arcs=(("c8", 0, 1, False),)))
    report = disk_obstruction_report(born, disks, born, closed_submanifold=True)
    assert report.verdict == "not-obstructed-by-this-criterion"
    assert not report.nonorientable_selections


def test_disk_obstruction_report_needs_more_than_one_disk():
    born = build_base_example()
    disk = DiskInP(id="d1", boundary_circle="a", sheets=("i_band",))
    with pytest.raises(ValueError):
        disk_obstruction_report(born, (disk,), born)


def test_graph_dot_export():
    born = build_base_example()
    disk = DiskInP(id="d", boundary_circle="x", sheets=("i_band", "i_floor"),
                   arcs=(("c8", 0, 1, False),))
    dot = graph_to_dot(build_graph(born, disk))
    assert dot.startswith('graph "d"')
    assert '"i_band" -- "i_floor"' in dot
    assert 'label="c8"' in dot
