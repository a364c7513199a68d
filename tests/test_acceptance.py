"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact.  Randomized suites run 200 instances under the seed
from SPINE_FORGE_SEED (default 0).
"""

import itertools
import random
import time

from spineforge.bornmap import region_counts, validate_born_map
from spineforge.core import (BOUNDARY, TRIPLE, euler_characteristic,
                             is_normal, strand_circles, validate_polyhedron)
from spineforge.gallery import (build_base_example, build_surgered_example,
                                klein_plan)
from spineforge.homology import cellulate, z2_homology
from spineforge.obstruction import (DiskInP, EmbeddingWitness, build_graph,
                                    heegaard_target, maximal_graph,
                                    orient_sheets, s3_obstruction)
from spineforge.subsurfaces import find_closed_surfaces
from spineforge.surgery import attach_surface

from conftest import SEED
from randgen import random_crossing_plan, random_interior_plan, random_round_map


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_example_reproduction():
    started = time.perf_counter()
    born = build_base_example()
    poly = born.polyhedron
    ok = validate_polyhedron(poly).ok
    ok = ok and is_normal(poly)
    ok = ok and validate_born_map(born).ok
    circles = strand_circles(poly)
    kinds = [poly.arc(c[0]).kind for c in circles]
    ok = ok and len(circles) == 6
    ok = ok and kinds.count(TRIPLE) == 4 and kinds.count(BOUNDARY) == 2
    ok = ok and len(poly.vertices) == 0
    counts = tuple(region_counts(born).values())
    ok = ok and counts == (4, 5, 4, 3, 2, 1, 0)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report("example-reproduction", ok)


def test_surgery_reproduction():
    base = build_base_example()
    out = attach_surface(klein_plan(base))
    ok = len(strand_circles(out.polyhedron)) == 8
    counts = region_counts(out)
    ok = ok and counts["ring<1"] == 4
    ok = ok and euler_characteristic(out.polyhedron) == \
        euler_characteristic(base.polyhedron)
    ok = ok and validate_polyhedron(out.polyhedron).ok
    ok = ok and is_normal(out.polyhedron)
    ok = ok and validate_born_map(out).ok
    report("surgery-reproduction", ok)


def test_klein_bottle_detection():
    surgered = build_surgered_example()
    search = find_closed_surfaces(surgered.polyhedron, 10 ** 6)
    hits = [s for s in search.selections
            if not s.orientable and s.euler == 0]
    ok = len(hits) >= 1
    verdict, witness, _ = s3_obstruction(surgered.polyhedron, 10 ** 6)
    ok = ok and verdict == "obstructed"
    ok = ok and witness is not None and not witness.orientable
    report("klein-bottle-detection", ok)


def test_disjoint_disk_graphs():
    born = build_base_example()
    disks = (DiskInP(id="d1", boundary_circle="inner_cut",
                     sheets=("o_floor",)),
             DiskInP(id="d2", boundary_circle="outer_cut",
                     sheets=("i_band",)))
    graphs = [build_graph(born, d) for d in disks]
    ok = set(graphs[0].vertices).isdisjoint(graphs[1].vertices)
    ok = ok and maximal_graph(graphs) is None
    report("maximal-graph-absent", ok)


def test_chi_additivity_suite():
    rng = random.Random(SEED)
    started = time.perf_counter()
    ok = True
    for trial in range(200):
        born = random_round_map(rng, name=f"acc{trial}")
        plan = (random_crossing_plan(rng, born) if trial % 3 == 0 else None) \
            or random_interior_plan(rng, born)
        before_chi = euler_characteristic(born.polyhedron)
        before_circles = len(strand_circles(born.polyhedron))
        before_vertices = len(born.polyhedron.vertices)
        out = attach_surface(plan)
        events = sum(len(c.events) for c in plan.circles)
        ok = ok and euler_characteristic(out.polyhedron) == \
            before_chi + plan.patch.euler
        ok = ok and len(strand_circles(out.polyhedron)) == \
            before_circles + len(plan.circles)
        ok = ok and len(out.polyhedron.vertices) == before_vertices + events
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report("chi-additivity-200-plans", ok)


def test_oracle_equivalence_suite():
    rng = random.Random(SEED + 1)
    ok = True
    for trial in range(200):
        born = random_round_map(rng, name=f"orc{trial}")
        poly = born.polyhedron
        if trial % 4 == 0:
            plan = random_crossing_plan(rng, born) or \
                random_interior_plan(rng, born)
            poly = attach_surface(plan).polyhedron
        chi = euler_characteristic(poly)
        ok = ok and cellulate(poly).euler == chi
        b0, b1, b2 = z2_homology(poly)
        ok = ok and b0 - b1 + b2 == chi
        if len(poly.sheets) <= 12:
            search = find_closed_surfaces(poly, 10 ** 6)
            for selection in search.selections:
                ok = ok and selection.orientable == _orientable_by_enumeration(
                    poly, selection.sheets)
        if not ok:
            break
    report("oracle-equivalence-200-polyhedra", ok)


def _orientable_by_enumeration(poly, sheets):
    sheets = sorted(sheets)
    if any(not poly.sheet(s).orientable for s in sheets):
        return False
    table = {}
    for sid in sheets:
        for circuit in poly.sheet(sid).circuits:
            for trav in circuit:
                table.setdefault(trav.arc, []).append((sid, trav.direction))
    used = [pairs for pairs in table.values() if len(pairs) == 2]
    for signs in itertools.product((1, -1), repeat=len(sheets)):
        sign = dict(zip(sheets, signs))
        if all(sign[a] * da + sign[b] * db == 0 for (a, da), (b, db) in used):
            return True
    return False


def test_orientation_propagation_matches_enumeration():
    rng = random.Random(SEED + 2)
    checked = 0
    ok = True
    for trial in range(200):
        born = random_round_map(rng, name=f"op{trial}")
        poly = born.polyhedron
        if not poly.sheets or len(poly.sheets) > 12:
            continue
        arcs = []
        sheets = set()
        for arc in poly.arcs:
            wings = poly._wings[arc.id]
            slots = sorted(wings)
            if len(slots) >= 2 and rng.random() < 0.5:
                a, b = rng.sample(slots, 2)
                if wings[a][0] != wings[b][0]:
                    arcs.append((arc.id, a, b, False))
                    sheets.update((wings[a][0], wings[b][0]))
        if not sheets:
            continue
        disk = DiskInP(id="d", boundary_circle="x",
                       sheets=tuple(sorted(sheets)), arcs=tuple(arcs))
        graph = build_graph(born, disk)
        seed = (graph.vertices[0], 1)
        outcome = orient_sheets(born, graph, seed)
        feasible = _graph_orientable_by_enumeration(born, graph, seed)
        if outcome[0] == "contradiction":
            ok = ok and feasible is None
        elif set(outcome[1]) == set(graph.vertices):
            ok = ok and feasible is not None
        checked += 1
        if not ok:
            break
    ok = ok and checked >= 50
    report("orientation-propagation-enumeration", ok)


def _graph_orientable_by_enumeration(born, graph, seed):
    poly = born.polyhedron
    seed_sheet, seed_sign = seed
    constraints = []
    for edge in graph.edges:
        wings = poly._wings[edge.arc]
        rel = 1 if wings[edge.slot_a][1] != wings[edge.slot_b][1] else -1
        constraints.append((edge.sheet_a, edge.sheet_b, rel))
    for signs in itertools.product((1, -1), repeat=len(graph.vertices)):
        assign = dict(zip(graph.vertices, signs))
        if assign[seed_sheet] != seed_sign:
            continue
        if all(assign[a] * assign[b] == rel for a, b, rel in constraints):
            return assign
    return None


def test_crossing_rule_suite():
    rng = random.Random(SEED + 3)
    ok = True
    for trial in range(200):
        born = random_round_map(rng, name=f"xr{trial}")
        if trial % 2:
            plan = random_crossing_plan(rng, born) or \
                random_interior_plan(rng, born)
            born = attach_surface(plan)
        ok = ok and validate_born_map(born).ok
        branch_curves = {a.curve for a in born.assignments.values()}
        for edge in born.arrangement.edges:
            delta = abs(born.fiber_counts[edge.left]
                        - born.fiber_counts[edge.right])
            ok = ok and (delta == 1 if edge.curve in branch_curves
                         else delta == 0)
        # inject a jump of two and expect detection
        if born.polyhedron.arcs:
            from dataclasses import replace
            counts = dict(born.fiber_counts)
            target = max(counts, key=lambda f: counts[f])
            counts[target] += 2
            broken = replace(born, fiber_counts=counts)
            ok = ok and not validate_born_map(broken).ok
        if not ok:
            break
    report("crossing-rule-200-maps", ok)


def test_heegaard_descriptor():
    ok = True
    for genus in range(6):
        for circles in range(1, 7):
            target = heegaard_target(EmbeddingWitness(genus), circles)
            ok = ok and target.summand_count == circles - 1
    report("heegaard-target-descriptor", ok)
