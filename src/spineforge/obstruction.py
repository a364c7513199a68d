"""Incidence graphs over embedded disks, orientation propagation, the
Heegaard-target descriptor, and the non-orientable-subsurface obstruction.

A disk embedded in the polyhedron meets some sheets and some branch arcs.
Its incidence graph has those sheets as vertices and, between two distinct
sheets, one edge per branch arc in both closures that the disk meets; the
graph is loop-free by construction.  Orientations propagate over edges with
the constraint that the two sheets induce opposite directions on the shared
arc.  A closed non-orientable subsurface blocks embeddings into the
3-sphere and into every closed orientable 3-manifold with the same mod-2
homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bornmap import require_valid_born_map
from .core import Violation
from .errors import (DiskBranchHypothesisFailed, NoMaximalGraph,
                     NonOrientableSheetMeetsDisk, PlanError, SeedNotInGraph)
from .subsurfaces import nonorientable_selections


@dataclass(frozen=True)
class DiskInP:
    id: str
    boundary_circle: str        # the plan circle bounding this disk
    sheets: tuple               # sheet ids the disk meets
    # (arc_id, slot_a, slot_b, full_circle): wing pair the disk crosses by
    arcs: tuple = ()
    embedded: bool = True       # the map restricted to the disk embeds


@dataclass(frozen=True)
class GraphEdge:
    arc: str
    sheet_a: str
    slot_a: int
    sheet_b: str
    slot_b: int


@dataclass(frozen=True)
class IncidenceGraph:
    disk: str
    vertices: tuple  # sheet ids, sorted
    edges: tuple     # GraphEdge, sorted by arc


@dataclass(frozen=True)
class EmbeddingWitness:
    heegaard_genus: int
    note: str = ""


@dataclass(frozen=True)
class TargetManifold:
    base_genus: int
    summands: tuple  # per-summand twisted flag; length = circles - 1

    @property
    def summand_count(self):
        return len(self.summands)

    def describe(self):
        pieces = [f"X_{self.base_genus}"]
        for twisted in self.summands:
            pieces.append("twisted S2-bundle over S1" if twisted
                          else "S2 x S1")
        return " # ".join(pieces)


@dataclass(frozen=True)
class ObstructionReport:
    graphs: tuple
    maximal_index: int | None
    orientation: dict | None
    contradiction: tuple | None
    nonorientable_selections: tuple
    verdict: str  # "obstructed" | "not-obstructed-by-this-criterion"
    truncated: bool = False


def _unknown_in_disk(disk, code, detail):
    """Raise the PlanError surgery raises for a plan circle naming a sheet,
    arc or slot its base lacks."""
    raise PlanError(code, str(Violation(code, disk.boundary_circle, detail)))


def build_graph(born, disk):
    """Vertices: sheets meeting the disk; edges: arcs joining two of them.

    A disk naming a sheet, an arc or a slot the polyhedron lacks raises
    PlanError with code UnknownSheet, UnknownArc or UnknownSlot.
    """
    require_valid_born_map(born)
    poly = born.polyhedron
    for sid in disk.sheets:
        if sid not in poly._sheet_by_id:
            _unknown_in_disk(disk, "UnknownSheet", sid)
        if not poly.sheet(sid).orientable:
            raise NonOrientableSheetMeetsDisk(
                f"disk {disk.id} meets non-orientable sheet {sid}")
    vertex_set = set(disk.sheets)
    edges = []
    for i, entry in enumerate(disk.arcs):
        arc_id, slot_a, slot_b = entry[0], entry[1], entry[2]
        if arc_id not in poly._arc_by_id:
            _unknown_in_disk(disk, "UnknownArc", arc_id)
        wings = poly._wings[arc_id]
        if slot_a not in wings or slot_b not in wings:
            _unknown_in_disk(disk, "UnknownSlot", f"entry {i}: {arc_id} has "
                             f"slots {sorted(wings)}")
        sheet_a = wings[slot_a][0]
        sheet_b = wings[slot_b][0]
        if sheet_a == sheet_b:
            continue  # loops are excluded by definition
        if sheet_a not in vertex_set or sheet_b not in vertex_set:
            continue
        if sheet_a > sheet_b:
            sheet_a, sheet_b = sheet_b, sheet_a
            slot_a, slot_b = slot_b, slot_a
        edges.append(GraphEdge(arc_id, sheet_a, slot_a, sheet_b, slot_b))
    return IncidenceGraph(disk=disk.id,
                          vertices=tuple(sorted(vertex_set)),
                          edges=tuple(sorted(edges, key=lambda e: e.arc)))


def _contains(big, small):
    return (set(small.vertices) <= set(big.vertices)
            and {e.arc for e in small.edges} <= {e.arc for e in big.edges})


def maximal_graph(graphs):
    """Index of a graph containing all others, or None.

    The order is simultaneous vertex-set and edge-set containment.
    """
    for i, candidate in enumerate(graphs):
        if all(_contains(candidate, g) for g in graphs):
            return i
    return None


def orient_sheets(born, graph, seed):
    """Propagate signs from the seed; returns ("oriented", assignment) or
    ("contradiction", cycle_of_arcs)."""
    require_valid_born_map(born)
    poly = born.polyhedron
    seed_sheet, seed_sign = seed
    if seed_sheet not in graph.vertices:
        raise SeedNotInGraph(f"{seed_sheet} not a vertex of the graph")
    if seed_sign not in (1, -1):
        raise ValueError("seed sign must be +1 or -1")

    adjacency = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        wings = poly._wings[edge.arc]
        d_a = wings[edge.slot_a][1]
        d_b = wings[edge.slot_b][1]
        # equal signs are compatible exactly when written directions differ
        relation = 1 if d_a != d_b else -1
        adjacency[edge.sheet_a].append((edge.sheet_b, relation, edge.arc))
        adjacency[edge.sheet_b].append((edge.sheet_a, relation, edge.arc))

    assignment = {seed_sheet: seed_sign}
    parent_arc = {seed_sheet: None}
    queue = [seed_sheet]
    for current in queue:
        for other, relation, arc in adjacency[current]:
            want = assignment[current] * relation
            if other not in assignment:
                assignment[other] = want
                parent_arc[other] = (current, arc)
                queue.append(other)
            elif assignment[other] != want:
                # the tree paths from both ends up to their lowest common
                # ancestor close an odd cycle with `arc`
                paths = []
                for node in (current, other):
                    path = [(node, None)]
                    while parent_arc[node]:
                        node, via = parent_arc[node]
                        path.append((node, via))
                    paths.append(path)
                a, b = paths
                while len(a) > 1 and len(b) > 1 and a[-2][0] == b[-2][0]:
                    a.pop()
                    b.pop()
                return ("contradiction",
                        (arc,) + tuple(via for _, via in a[1:] + b[1:]))
    # vertices in other components of the graph stay unoriented; the graph
    # of one disk is connected in practice, but report what was reached
    return ("oriented", assignment)


def heegaard_target(witness, circles, twisted=None, disks=None):
    """Connected-sum descriptor: the witness manifold plus circles-1
    sphere-bundle summands."""
    if witness.heegaard_genus < 0:
        raise ValueError("Heegaard genus must be non-negative")
    if circles < 1:
        raise ValueError("need at least one circle")
    if disks is not None:
        for disk in disks:
            if len(disk.arcs) == 0:
                continue
            if len(disk.arcs) == 1 and not disk.arcs[0][3]:
                continue
            raise DiskBranchHypothesisFailed(
                f"disk {disk.id} meets the branch in more than one interval")
    flags = tuple(twisted) if twisted is not None else (False,) * (circles - 1)
    if len(flags) != circles - 1:
        raise ValueError("need one twisted flag per summand")
    return TargetManifold(base_genus=witness.heegaard_genus, summands=flags)


def s3_obstruction(poly, bound):
    """("obstructed", selection) when a closed non-orientable subsurface
    exists within the bound, else ("not-obstructed", None); a third element
    flags truncation.  The witness is the first non-orientable selection
    find_closed_surfaces(poly, bound) would list, and the only one
    annotated; the search reuses the object's index and an uncut walk
    that either this or find_closed_surfaces made on it."""
    bad, truncated = nonorientable_selections(poly, bound)
    witness = next(bad, None)
    return ("obstructed" if witness else "not-obstructed", witness, truncated)


def disk_obstruction_report(born, disks, surgered, bound=100000, closed_submanifold=False):
    """Full second-case pipeline: graphs, maximality, orientation
    propagation, and the subsurface search on the surgered map."""
    if len(disks) <= 1:
        raise ValueError("need more than one disk")
    graphs = tuple(build_graph(born, d) for d in disks)
    index = maximal_graph(graphs)
    if index is None:
        raise NoMaximalGraph("the incidence graphs have no maximal element")
    seed_sheet = graphs[index].vertices[0]
    outcome = orient_sheets(born, graphs[index], (seed_sheet, 1))
    orientation = outcome[1] if outcome[0] == "oriented" else None
    contradiction = outcome[1] if outcome[0] == "contradiction" else None

    bad, truncated = nonorientable_selections(surgered.polyhedron, bound)
    bad = tuple(bad)
    verdict = ("obstructed" if bad and closed_submanifold
               else "not-obstructed-by-this-criterion")
    return ObstructionReport(graphs=graphs, maximal_index=index,
                             orientation=orientation,
                             contradiction=contradiction,
                             nonorientable_selections=bad,
                             verdict=verdict, truncated=truncated)


def graph_to_dot(graph):
    lines = [f'graph "{graph.disk}" {{']
    for vertex in graph.vertices:
        lines.append(f'  "{vertex}";')
    for edge in graph.edges:
        lines.append(f'  "{edge.sheet_a}" -- "{edge.sheet_b}" '
                     f'[label="{edge.arc}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
