"""Plane maps carried by normal simple polyhedra, in combinatorial form.

A BornMap couples a normal simple polyhedron with a plane arrangement:
every strand circle of the branch is assigned one branch-tagged curve, every
face carries the number of connected fiber components over it, and every
vertex of the polyhedron corresponds to one crossing of branch curves.
This is the quotient data of a fold map with spherical fibers whose
singular circles project onto the branch curves.

Count semantics: fiber counts jump by exactly 1 across branch curves (two
wings on the heavy side, one on the light side; a boundary wing sits on the
heavy side alone) and do not jump across auxiliary curves.  The unbounded
face always has count 0: the polyhedron is compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrangement import face_depths, validate_arrangement
from .core import (TRIPLE, ValidationReport, Violation, is_normal, slot_count,
                   validate_polyhedron)
from .errors import DimensionTooLow, InvalidBornMap


@dataclass(frozen=True)
class StrandAssignment:
    curve: str
    direction: int  # +1: strand orientation matches the curve's, -1 reversed
    heavy: str      # "L" or "R": the side of the curve with the higher count
    # (arc_id, slot) -> "L"/"R": the side of the curve each wing maps to
    wing_sides: tuple  # tuple of ((arc_id, slot), side) pairs

    @cached_property
    def _sides(self):
        """arc id -> {slot: side}, the table every wing-side lookup reads;
        a wing listed twice has the side None."""
        table = {}
        for (arc_id, slot), side in self.wing_sides:
            slots = table.setdefault(arc_id, {})
            slots[slot] = None if slot in slots else side
        return table

    def wing_side(self, arc_id, slot):
        """The side of one wing; None when it is not listed once."""
        return self._sides.get(arc_id, {}).get(slot)


@dataclass(frozen=True)
class BornMap:
    polyhedron: object
    arrangement: object
    assignments: dict      # strand_key -> StrandAssignment
    fiber_counts: dict     # face_id -> int
    vertex_crossings: dict  # vertex_id -> crossing_id
    name: str = ""


@dataclass(frozen=True)
class RealizabilityCertificate:
    dimension: int
    singular_components: int
    subject: str

    def statement(self):
        return (f"{self.subject or 'the map'} is realized by a closed "
                f"{self.dimension}-manifold and a fold map with spherical "
                f"fibers whose singular set has "
                f"{self.singular_components} components")


def _corner_faces(arr, crossing):
    """The four faces between consecutive rays, in cyclic order."""
    out = []
    for pos in range(4):
        eid, end = crossing.order[pos]
        edge = arr.edge(eid)
        direction_in = 1 if end == 1 else -1  # pointing into the crossing
        out.append(edge.left if direction_in > 0 else edge.right)
    return out


def validate_born_map(born):
    v = []
    poly_report = validate_polyhedron(born.polyhedron)
    if not poly_report.ok:
        return ValidationReport.failed(
            [Violation("PolyhedronInvalid", born.name or "born map")]
            + list(poly_report.violations))
    if not is_normal(born.polyhedron):
        v.append(Violation("NotNormal", born.name or "born map"))
    arr_report = validate_arrangement(born.arrangement)
    if not arr_report.ok:
        return ValidationReport.failed(
            [Violation("ArrangementInvalid", born.name or "born map")]
            + list(arr_report.violations))

    poly = born.polyhedron
    arr = born.arrangement

    if set(born.assignments) != set(poly._strands):
        v.append(Violation("AssignmentTotality", born.name or "born map",
                           f"strands {sorted(poly._strands)} vs "
                           f"assigned {sorted(born.assignments)}"))
        return ValidationReport.failed(v)

    branch_curves = {c.id for c in arr.curves if c.source[0] == "branch"}
    assigned_curves = [a.curve for a in born.assignments.values()]
    if len(set(assigned_curves)) != len(assigned_curves):
        v.append(Violation("AssignmentInjective", born.name or "born map"))
    if set(assigned_curves) != branch_curves:
        v.append(Violation("BranchCurveCover", born.name or "born map",
                           f"{sorted(branch_curves)} vs {sorted(set(assigned_curves))}"))
    for key, assignment in born.assignments.items():
        if assignment.curve in arr._curve_by_id:
            source = arr.curve(assignment.curve).source
            if source != ("branch", key):
                v.append(Violation("SourceTag", assignment.curve,
                                   f"expected branch:{key}, found {source}"))

    missing = [f.id for f in arr.faces if f.id not in born.fiber_counts]
    if missing:
        v.append(Violation("CountMissing", ",".join(missing)))
        return ValidationReport.failed(v)
    for fid, count in born.fiber_counts.items():
        if fid not in arr._face_by_id:
            v.append(Violation("CountUnknownFace", fid))
        if count < 0:
            v.append(Violation("NegativeCount", fid))
    if born.fiber_counts[arr.unbounded_face.id] != 0:
        v.append(Violation("UnboundedCount", arr.unbounded_face.id,
                           "a compact polyhedron leaves the unbounded face empty"))

    # a closed sheet cannot immerse into the plane, so it never occurs in
    # the domain of a plane map
    for sheet in poly.sheets:
        if not sheet.circuits:
            v.append(Violation("ClosedSheet", sheet.id,
                               "closed sheets do not map to the plane"))

    # crossing rules edge by edge
    heavy_of = {a.curve: a.heavy for a in born.assignments.values()}
    for edge in arr.edges:
        left = born.fiber_counts[edge.left]
        right = born.fiber_counts[edge.right]
        if edge.curve in branch_curves:
            if abs(left - right) != 1:
                v.append(Violation("CrossingRule", edge.id,
                                   f"counts {left}|{right}"))
            else:
                heavy = heavy_of.get(edge.curve)
                heavy_count = left if heavy == "L" else right
                light_count = right if heavy == "L" else left
                if heavy_count != light_count + 1:
                    v.append(Violation("HeavySide", edge.id,
                                       f"{heavy} side not the larger count"))
        else:
            if left != right:
                v.append(Violation("AuxJump", edge.id, f"counts {left}|{right}"))

    # wing side bookkeeping: triple arcs put two wings on the heavy side,
    # boundary arcs put their single wing there
    for key, assignment in born.assignments.items():
        for arc_id in poly._strands[key]:
            arc = poly.arc(arc_id)
            expected = set(range(slot_count(arc.kind)))
            sides = assignment._sides.get(arc_id, {})
            if sides.keys() != expected:
                v.append(Violation("WingSides", arc_id,
                                   f"slots {sorted(sides)} vs {sorted(expected)}"))
                continue
            repeated = [slot for slot, side in sides.items() if side is None]
            if repeated:
                v.append(Violation("WingSides", arc_id,
                                   f"slot {repeated[0]} listed twice"))
                continue
            n_heavy = sum(side == assignment.heavy for side in sides.values())
            want = 2 if arc.kind == TRIPLE else 1
            if n_heavy != want:
                v.append(Violation("WingSides", arc_id,
                                   f"{n_heavy} wings on the heavy side, want {want}"))

    # vertex / crossing correspondence
    crossing_curves = {}
    for crossing in arr.crossings:
        curves_here = tuple(sorted({arr.edge(eid).curve for eid, _ in crossing.order}))
        if all(c in branch_curves for c in curves_here):
            crossing_curves[crossing.id] = curves_here
    if set(born.vertex_crossings.keys()) != {w.id for w in poly.vertices}:
        v.append(Violation("VertexMap", born.name or "born map", "domain mismatch"))
    else:
        used = list(born.vertex_crossings.values())
        if len(set(used)) != len(used) or set(used) != set(crossing_curves):
            v.append(Violation("VertexMap", born.name or "born map",
                               "not a bijection onto branch crossings"))
        else:
            curve_of_strand = {k: a.curve for k, a in born.assignments.items()}
            for vertex in poly.vertices:
                xid = born.vertex_crossings[vertex.id]
                vertex_curves = tuple(sorted(
                    {curve_of_strand[poly._strand_of[aid]] for aid, _ in vertex.ends}))
                if vertex_curves != crossing_curves[xid]:
                    v.append(Violation("VertexMap", vertex.id,
                                       f"curves {vertex_curves} vs crossing {xid}"))

    # corner sum rule at branch crossings: increments are a rotation of
    # (+1, +1, -1, -1) around the crossing
    for crossing in arr.crossings:
        if crossing.id not in crossing_curves:
            continue
        corners = _corner_faces(arr, crossing)
        counts = [born.fiber_counts[f] for f in corners]
        jumps = tuple(counts[(i + 1) % 4] - counts[i] for i in range(4))
        rotations = {(1, 1, -1, -1), (1, -1, -1, 1), (-1, -1, 1, 1), (-1, 1, 1, -1)}
        if jumps not in rotations:
            v.append(Violation("CornerRule", crossing.id, str(jumps)))

    if v:
        return ValidationReport.failed(v)
    return ValidationReport.passed()


def require_valid_born_map(born):
    report = validate_born_map(born)
    if not report.ok:
        raise InvalidBornMap(report)
    return born


def region_counts(born):
    """Counts keyed by face label (falling back to face id), in a stable
    nesting-depth order."""
    require_valid_born_map(born)
    arr = born.arrangement
    depth = face_depths(arr)
    ordered = sorted(arr.faces,
                     key=lambda f: (-depth.get(f.id, 0), f.label or f.id))
    return {f.label or f.id: born.fiber_counts[f.id] for f in ordered}


def realizability_certificate(born, dimension):
    """Existence certificate for a realizing fold map in the given dimension."""
    if dimension < 3:
        raise DimensionTooLow(f"dimension {dimension} is below 3")
    require_valid_born_map(born)
    return RealizabilityCertificate(
        dimension=dimension,
        singular_components=len(born.polyhedron._strands),
        subject=born.name,
    )
