"""Incidence model for normal simple polyhedra.

A simple polyhedron is stored as three cross-referencing tables:

* sheets  -- the surface pieces (components of the complement of the branch),
             each with orientability, genus/crosscap count and boundary
             circuits written as cyclic sequences of wing traversals;
* arcs    -- the branch pieces between vertices (or whole branch circles),
             of boundary kind (one wing, an interval collar) or triple kind
             (three wings, a Y-shaped collar);
* vertices -- transverse double points of the branch, where two strands
             cross and the twelve local wing-ends are matched by a fixed
             continuation table.

Wing slots: a boundary arc has the single slot 0, a triple arc has slots
0, 1, 2.  A wing traversal (arc, slot, direction) is one full run of a
sheet boundary along that wing; direction +1 runs from end 0 to end 1 of
the arc.  For orientable sheets the traversal directions of all circuits
are coherent with one chosen orientation of the sheet; flipping every
direction of one sheet, or reorienting one arc, yields an equivalent
polyhedron (a gauge change).

At a vertex the four incident arc-ends sit in the cyclic order
[a1, b1, a2, b2] where (a1, a2) and (b1, b2) are the two strands.  Each
arc-end designates one of its three slots as free (the wing that passes
straight through) and binds the other two to the quadrants on its two
sides.  The continuation table is: free wings continue to the free wing
of the opposite end of the same strand; quadrant wings turn the corner
onto the partner wing of the same quadrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidPolyhedron

BOUNDARY = "boundary"
TRIPLE = "triple"

TRIVIAL = "trivial"
SWAP = "swap"


def slot_count(kind):
    return 1 if kind == BOUNDARY else 3


@dataclass(frozen=True)
class WingTraversal:
    arc: str
    slot: int
    direction: int  # +1: end0 -> end1, -1: end1 -> end0

    def reversed(self):
        return WingTraversal(self.arc, self.slot, -self.direction)


@dataclass(frozen=True)
class SheetSpec:
    id: str
    orientable: bool
    genus: int  # orientable genus, or crosscap count when non-orientable
    circuits: tuple  # tuple of circuits; each circuit a tuple of WingTraversal

    @property
    def euler(self):
        b = len(self.circuits)
        if self.orientable:
            return 2 - 2 * self.genus - b
        return 2 - self.genus - b


@dataclass(frozen=True)
class BranchArc:
    id: str
    kind: str  # BOUNDARY or TRIPLE
    # None for a closed circle, else ((vertex_id, port), (vertex_id, port))
    endpoints: tuple | None = None
    monodromy: str = TRIVIAL

    @property
    def closed(self):
        return self.endpoints is None


@dataclass(frozen=True)
class EndRoles:
    free: int
    lq: int  # bound to the quadrant counterclockwise of this ray
    rq: int  # bound to the quadrant clockwise of this ray


@dataclass(frozen=True)
class VertexSpec:
    id: str
    # four (arc_id, end_index) refs in cyclic order [a1, b1, a2, b2];
    # strands are (ends[0], ends[2]) and (ends[1], ends[3])
    ends: tuple
    roles: tuple  # four EndRoles, parallel to ends

    @property
    def strands(self):
        return ((self.ends[0], self.ends[2]), (self.ends[1], self.ends[3]))


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str = ""

    def __str__(self):
        return f"{self.code}({self.subject}){': ' + self.detail if self.detail else ''}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    @staticmethod
    def passed():
        return ValidationReport(True, ())

    @staticmethod
    def failed(violations):
        return ValidationReport(False, tuple(violations))

    def __str__(self):
        if self.ok:
            return "ok"
        return "invalid: " + "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class SimplePolyhedron:
    sheets: tuple
    arcs: tuple
    vertices: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_sheet_by_id", {s.id: s for s in self.sheets})
        object.__setattr__(self, "_arc_by_id", {a.id: a for a in self.arcs})
        object.__setattr__(self, "_vertex_by_id", {v.id: v for v in self.vertices})

    def sheet(self, sid):
        return self._sheet_by_id[sid]

    def arc(self, aid):
        return self._arc_by_id[aid]

    def vertex(self, vid):
        return self._vertex_by_id[vid]

    # Derived data, built on first use and kept on this object, as are the
    # closed-surface index and uncut walk of subsurfaces.  No field holds
    # it: ==, hash and repr ignore it; dataclasses.replace starts without it.

    @cached_property
    def _checked(self):
        """(validation report, wing table), from one pass of the validator."""
        return _check_polyhedron(self)

    @cached_property
    def _report(self):
        return self._checked[0]

    @cached_property
    def _wings(self):
        """arc id -> {slot: (sheet id, direction)}, built by validation's
        slot-claim pass; raises InvalidPolyhedron on an invalid polyhedron."""
        require_valid(self)
        return self._checked[1]

    @cached_property
    def _strands(self):
        """Smallest arc id -> sorted arc-id tuple, per strand circle, by key."""
        require_valid(self)
        uf = ParityUnionFind(arc.id for arc in self.arcs)
        for vertex in self.vertices:
            for first, second in vertex.strands:
                uf.union(first[0], second[0], 0)
        groups = {}
        for arc in self.arcs:
            groups.setdefault(uf.find(arc.id)[0], []).append(arc.id)
        return {circle[0]: circle
                for circle in sorted(tuple(sorted(g)) for g in groups.values())}

    @cached_property
    def _strand_of(self):
        """arc id -> key of its strand circle."""
        return {aid: key for key, circle in self._strands.items() for aid in circle}


# ---------------------------------------------------------------------------
# continuation machinery
# ---------------------------------------------------------------------------

def continue_at_vertex(vertex, port_in, slot_in):
    """Match a wing-end arriving at `port_in` to the wing-end it leaves by.

    Returns (port_out, slot_out).  The matching is an involution on the
    twelve (port, slot) pairs of the vertex.
    """
    roles_in = vertex.roles[port_in]
    if slot_in == roles_in.free:
        port_out = (port_in + 2) % 4
        return port_out, vertex.roles[port_out].free
    if slot_in == roles_in.lq:
        port_out = (port_in + 1) % 4
        return port_out, vertex.roles[port_out].rq
    if slot_in == roles_in.rq:
        port_out = (port_in - 1) % 4
        return port_out, vertex.roles[port_out].lq
    raise ValueError(f"slot {slot_in} not present at vertex {vertex.id} port {port_in}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_polyhedron(poly):
    """Structural validation; all failures are reported, never raised.

    The report is computed on the first call for a polyhedron object and
    returned again by every later call for it."""
    return poly._report


def duplicate_ids(*tables):
    """A DuplicateId for each repeat of an id across `tables`, in order."""
    v, seen = [], set()
    for table in tables:
        for record in table:
            if record.id in seen:
                v.append(Violation("DuplicateId", record.id))
            seen.add(record.id)
    return v


def _check_polyhedron(poly):
    """(report, wing table); the table is complete when the report is ok."""
    arc_by_id, vertex_by_id = poly._arc_by_id, poly._vertex_by_id
    v = duplicate_ids(poly.sheets, poly.arcs, poly.vertices)

    for sheet in poly.sheets:
        if sheet.genus < 0:
            v.append(Violation("NegativeGenus", sheet.id))
        if not sheet.orientable and sheet.genus < 1:
            v.append(Violation("NonOrientableGenus", sheet.id,
                               "crosscap count must be at least 1"))

    for arc in poly.arcs:
        if arc.kind not in (BOUNDARY, TRIPLE):
            v.append(Violation("ArcKind", arc.id, arc.kind))
            continue
        if arc.kind == BOUNDARY and not arc.closed:
            v.append(Violation("BoundaryArcOpen", arc.id,
                               "boundary arcs are whole circles"))
        if arc.monodromy == SWAP and (arc.kind != TRIPLE or not arc.closed):
            v.append(Violation("SwapPlacement", arc.id,
                               "swap monodromy only on closed triple circles"))
        if arc.monodromy not in (TRIVIAL, SWAP):
            v.append(Violation("Monodromy", arc.id, arc.monodromy))
        if not arc.closed:
            for end_index, ref in enumerate(arc.endpoints):
                vid, port = ref
                if vid not in vertex_by_id:
                    v.append(Violation("UnknownVertex", arc.id, vid))
                    continue
                vertex = vertex_by_id[vid]
                if not (0 <= port < 4):
                    v.append(Violation("PortRange", arc.id, str(port)))
                # a vertex without four ends is reported as VertexShape
                elif len(vertex.ends) == 4 and vertex.ends[port] != (arc.id, end_index):
                    v.append(Violation("StrandMismatch", arc.id,
                                       f"end {end_index} vs {vid}:{port}"))

    port_claims = {}
    for vertex in poly.vertices:
        if len(vertex.ends) != 4 or len(vertex.roles) != 4:
            v.append(Violation("VertexShape", vertex.id))
            continue
        for port, (aid, end_index) in enumerate(vertex.ends):
            if aid not in arc_by_id:
                v.append(Violation("UnknownArc", vertex.id, aid))
                continue
            arc = arc_by_id[aid]
            if arc.kind != TRIPLE:
                v.append(Violation("VertexEndKind", vertex.id,
                                   f"{aid} is not triple"))
            if arc.closed:
                v.append(Violation("StrandMismatch", vertex.id,
                                   f"{aid} is closed but listed at a vertex"))
            elif end_index not in (0, 1) or arc.endpoints[end_index] != (vertex.id, port):
                v.append(Violation("StrandMismatch", vertex.id,
                                   f"port {port} vs {aid} end {end_index}"))
            key = (aid, end_index)
            if key in port_claims:
                v.append(Violation("ArcEndReused", vertex.id, f"{aid}:{end_index}"))
            port_claims[key] = (vertex.id, port)
        for port, roles in enumerate(vertex.roles):
            if sorted((roles.free, roles.lq, roles.rq)) != [0, 1, 2]:
                v.append(Violation("VertexRoles", vertex.id, f"port {port}"))

    wings = {arc.id: {} for arc in poly.arcs}
    if v:
        return ValidationReport.failed(v), wings

    # flag bookkeeping: every wing slot claimed by exactly one traversal
    for sheet in poly.sheets:
        for ci, circuit in enumerate(sheet.circuits):
            if not circuit:
                v.append(Violation("EmptyCircuit", sheet.id, f"circuit {ci}"))
                continue
            for trav in circuit:
                if trav.arc not in arc_by_id:
                    v.append(Violation("CircuitRef", sheet.id, f"unknown arc {trav.arc}"))
                    continue
                arc = arc_by_id[trav.arc]
                if not (0 <= trav.slot < slot_count(arc.kind)):
                    v.append(Violation("CircuitRef", sheet.id,
                                       f"arc {trav.arc} slot {trav.slot}"))
                    continue
                if trav.direction not in (1, -1):
                    v.append(Violation("CircuitRef", sheet.id, "direction"))
                    continue
                slots = wings[trav.arc]
                if trav.slot in slots:
                    v.append(Violation("SlotDoubleFilled", trav.arc, f"slot {trav.slot}"))
                slots[trav.slot] = (sheet.id, trav.direction)

    for arc in poly.arcs:
        missing = [s for s in range(slot_count(arc.kind)) if s not in wings[arc.id]]
        if missing:
            code = "TripleArcDegree" if arc.kind == TRIPLE else "BoundaryArcDegree"
            v.append(Violation(code, arc.id,
                               f"{slot_count(arc.kind) - len(missing)} of "
                               f"{slot_count(arc.kind)} slots filled"))

    if v:
        return ValidationReport.failed(v), wings

    # circuit continuity under the continuation table: each traversal must
    # be followed by the one its arc's far end forces, compared as
    # (arc, slot, direction)
    for sheet in poly.sheets:
        for ci, circuit in enumerate(sheet.circuits):
            last = len(circuit) - 1
            for pos, trav in enumerate(circuit):
                arc = arc_by_id[trav.arc]
                slot, direction = trav.slot, trav.direction
                if arc.endpoints is None:
                    # around a closed circle; swap monodromy exchanges
                    # slots 1 and 2
                    if slot and arc.monodromy == SWAP:
                        slot = 3 - slot
                    expected = (arc.id, slot, direction)
                else:
                    vid, port = arc.endpoints[direction > 0]
                    vertex = vertex_by_id[vid]
                    port_out, slot_out = continue_at_vertex(vertex, port, slot)
                    arc_out, end_out = vertex.ends[port_out]
                    expected = (arc_out, slot_out, 1 if end_out == 0 else -1)
                actual = circuit[pos + 1 if pos < last else 0]
                if (actual.arc, actual.slot, actual.direction) != expected:
                    v.append(Violation("CircuitContinuity", sheet.id,
                                       f"circuit {ci} after {trav.arc}:{trav.slot}"))

    if v:
        return ValidationReport.failed(v), wings
    return ValidationReport.passed(), wings


def require_valid(poly):
    report = validate_polyhedron(poly)
    if not report.ok:
        raise InvalidPolyhedron(report)
    return poly


def is_normal(poly):
    """True when every branch collar bundle is trivial."""
    require_valid(poly)
    return all(arc.monodromy == TRIVIAL for arc in poly.arcs)


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------

class ParityUnionFind:
    """Union-find over a fixed node set whose nodes carry a parity (0 or 1)
    relative to their root; `sets` counts the classes.  Plain grouping
    unions with relation 0.

    `find` walks and compresses paths in a loop, so a long chain of unions
    cannot exhaust the Python stack.
    """

    def __init__(self, nodes):
        self._parent = {x: x for x in nodes}
        self._parity = dict.fromkeys(self._parent, 0)  # relative to parent
        self.sets = len(self._parent)

    def find(self, x):
        """(root, parity of x relative to the root)."""
        parent, parity = self._parent, self._parity
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        total = 0
        for node in reversed(path):
            total ^= parity[node]
            parity[node] = total
            parent[node] = x
        return x, total

    def union(self, a, b, rel):
        """Record parity(a) ^ parity(b) == rel; False when that contradicts
        the relations recorded so far."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        self._parent[ra] = rb
        self._parity[ra] = pa ^ pb ^ rel
        self.sets -= 1
        return True


def strand_circles(poly):
    """The immersed branch circles: arcs joined straight-through at vertices.

    Returns a sorted list of sorted arc-id tuples.  Each circle is the image
    of one component of the singular set of any realizing map.  Each call
    returns a fresh list of the partition the polyhedron keeps.
    """
    return list(poly._strands.values())


def euler_characteristic(poly):
    """Sum of sheet characteristics plus the branch graph characteristic.

    Closed branch circles contribute 0; an open arc contributes -1 and a
    vertex +1, which is the cell count of the branch as a graph.
    """
    require_valid(poly)
    total = sum(sheet.euler for sheet in poly.sheets)
    open_arcs = sum(1 for arc in poly.arcs if not arc.closed)
    return total + len(poly.vertices) - open_arcs
