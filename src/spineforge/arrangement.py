"""Immersed plane curve arrangements as combinatorial planar maps.

An arrangement stores crossings (4-valent, two transverse strands), directed
edges grouped into cyclically ordered curves, and faces given by explicit
contour walks.  Contours list directed edge-sides with the face on the left
of the walking direction; the corner rule at a crossing is "arrive on ray i,
leave on ray i+1" with the four rays in counterclockwise order.

Coordinates are never stored.  Gallery builders may attach decorative
drawing hints to curves and faces; they carry no semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .core import ParityUnionFind, ValidationReport, Violation, duplicate_ids
from .errors import InvalidArrangement, PlanError


@dataclass(frozen=True)
class Crossing:
    id: str
    # four (edge_id, end_index) rays in counterclockwise cyclic order;
    # strands are (order[0], order[2]) and (order[1], order[3])
    order: tuple


@dataclass(frozen=True)
class ArrEdge:
    id: str
    curve: str
    # None for a closed one-edge curve, else ((xid, pos), (xid, pos));
    # pos is the index of this (edge, end) in the crossing's order tuple
    ends: tuple | None
    left: str
    right: str

    @property
    def closed(self):
        return self.ends is None


@dataclass(frozen=True)
class Curve:
    id: str
    source: tuple  # ("branch", strand_key) or ("aux", label)
    edges: tuple   # cyclic, directed along the curve
    draw: tuple | None = None  # decorative (cx, cy, r), no semantics


@dataclass(frozen=True)
class Face:
    id: str
    # tuple of contours; each contour a tuple of (edge_id, direction)
    contours: tuple
    unbounded: bool = False
    label: str = ""
    draw: tuple | None = None  # decorative label anchor (x, y)


@dataclass(frozen=True)
class CurveArrangement:
    crossings: tuple
    edges: tuple
    curves: tuple
    faces: tuple

    def __post_init__(self):
        object.__setattr__(self, "_crossing_by_id", {c.id: c for c in self.crossings})
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in self.edges})
        object.__setattr__(self, "_curve_by_id", {c.id: c for c in self.curves})
        object.__setattr__(self, "_face_by_id", {f.id: f for f in self.faces})

    def crossing(self, xid):
        return self._crossing_by_id[xid]

    def edge(self, eid):
        return self._edge_by_id[eid]

    def curve(self, cid):
        return self._curve_by_id[cid]

    def face(self, fid):
        return self._face_by_id[fid]

    @cached_property
    def _report(self):
        return _check_arrangement(self)

    @property
    def unbounded_face(self):
        for f in self.faces:
            if f.unbounded:
                return f
        raise InvalidArrangement(ValidationReport.failed(
            [Violation("NoUnboundedFace", "arrangement")]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _side_face(edge, direction):
    return edge.left if direction > 0 else edge.right


def _next_side(eid, direction, ends, crossings):
    """Continue a face-on-left contour walk past the end of (eid, direction).

    `ends` are the edge's ends (None for a closed edge) and `crossings` maps
    each crossing id to its Crossing.  Rays are stored in counterclockwise
    order, so walking with the face on the left turns from the arrival ray
    to its clockwise neighbor."""
    if ends is None:
        return eid, direction
    xid, pos = ends[1 if direction > 0 else 0]
    out_edge, out_end = crossings[xid].order[(pos - 1) % 4]
    return out_edge, (1 if out_end == 0 else -1)


def validate_arrangement(arr):
    """Structural validation, computed on the first call for an arrangement
    object and returned again by every later call for it."""
    return arr._report


def _check_arrangement(arr):
    v = duplicate_ids(arr.crossings, arr.edges, arr.curves, arr.faces)

    for crossing in arr.crossings:
        if len(crossing.order) != 4:
            v.append(Violation("NotFourValent", crossing.id))
            continue
        if len(set(crossing.order)) != 4:
            v.append(Violation("NotFourValent", crossing.id, "repeated ray"))
        for pos, (eid, end) in enumerate(crossing.order):
            if eid not in arr._edge_by_id:
                v.append(Violation("DanglingEdge", crossing.id, eid))
                continue
            edge = arr.edge(eid)
            if edge.closed or end not in (0, 1) or edge.ends[end] != (crossing.id, pos):
                v.append(Violation("DanglingEdge", crossing.id,
                                   f"{eid}:{end} backref"))

    for curve in arr.curves:
        for eid in curve.edges:
            if eid not in arr._edge_by_id:
                v.append(Violation("CurveMembership", curve.id,
                                   f"unknown edge {eid}"))

    for edge in arr.edges:
        if edge.curve not in arr._curve_by_id:
            v.append(Violation("UnknownCurve", edge.id, edge.curve))
        for fid in (edge.left, edge.right):
            if fid not in arr._face_by_id:
                v.append(Violation("UnknownFace", edge.id, fid))
        if edge.ends is not None:
            for xid, pos in edge.ends:
                if xid not in arr._crossing_by_id:
                    v.append(Violation("DanglingEdge", edge.id, xid))

    if v:
        return ValidationReport.failed(v)

    for curve in arr.curves:
        if not curve.edges:
            v.append(Violation("EmptyCurve", curve.id))
            continue
        for eid in curve.edges:
            edge = arr.edge(eid)
            if edge.curve != curve.id:
                v.append(Violation("CurveMembership", curve.id, eid))
        if len(curve.edges) == 1 and arr.edge(curve.edges[0]).closed:
            continue
        for i, eid in enumerate(curve.edges):
            edge = arr.edge(eid)
            nxt = arr.edge(curve.edges[(i + 1) % len(curve.edges)])
            if edge.closed or nxt.closed:
                v.append(Violation("CurveChain", curve.id, eid))
                continue
            xid, pos = edge.ends[1]
            crossing = arr.crossing(xid)
            mate_edge, mate_end = crossing.order[(pos + 2) % 4]
            if mate_edge != nxt.id or mate_end != 0:
                v.append(Violation("CurveChain", curve.id,
                                   f"{eid} -> {nxt.id} not a strand at {xid}"))

    # 2 strands per crossing means each strand joins consecutive curve edges;
    # checked above via CurveChain for every consecutive pair.

    side_claims = {}
    for face in arr.faces:
        for contour in face.contours:
            if not contour:
                v.append(Violation("EmptyContour", face.id))
                continue
            for eid, direction in contour:
                if eid not in arr._edge_by_id:
                    v.append(Violation("UnknownEdgeSide", face.id, eid))
                    continue
                key = (eid, direction)
                if key in side_claims:
                    v.append(Violation("SideDoubleClaimed", face.id, f"{eid}:{direction}"))
                side_claims[key] = face.id
                if _side_face(arr.edge(eid), direction) != face.id:
                    v.append(Violation("SideFaceMismatch", face.id, f"{eid}:{direction}"))
            for i, (eid, direction) in enumerate(contour):
                nxt = contour[(i + 1) % len(contour)]
                if (eid in arr._edge_by_id and _next_side(
                        eid, direction, arr.edge(eid).ends, arr._crossing_by_id) != nxt):
                    v.append(Violation("ContourWalk", face.id, f"after {eid}:{direction}"))

    for edge in arr.edges:
        for direction in (1, -1):
            if (edge.id, direction) not in side_claims:
                v.append(Violation("SideUnclaimed", edge.id, str(direction)))

    if sum(1 for f in arr.faces if f.unbounded) != 1:
        v.append(Violation("UnboundedCount", "arrangement"))

    if v:
        return ValidationReport.failed(v)

    # Euler formula, component aware: closed one-edge curves get an
    # auxiliary vertex so each contributes V=1, E=1.
    closed_curves = sum(1 for c in arr.curves
                        if len(c.edges) == 1 and arr.edge(c.edges[0]).closed)
    vertices = len(arr.crossings) + closed_curves
    uf = ParityUnionFind(curve.id for curve in arr.curves)
    for crossing in arr.crossings:
        curves_here = sorted({arr.edge(eid).curve for eid, _ in crossing.order})
        for a, b in zip(curves_here, curves_here[1:]):
            uf.union(a, b, 0)
    components = uf.sets
    faces = len(arr.faces)
    if arr.curves:
        if vertices - len(arr.edges) + faces != 1 + components:
            v.append(Violation("EulerFormula", "arrangement",
                               f"V-E+F = {vertices - len(arr.edges) + faces}, "
                               f"components = {components}"))
    elif faces != 1:
        v.append(Violation("EulerFormula", "arrangement", "empty map needs one face"))

    if v:
        return ValidationReport.failed(v)
    return ValidationReport.passed()


def face_depths(arr):
    """face id -> number of curves crossed on a shortest way out to the
    unbounded face; faces it cannot reach are left out."""
    neighbors = {}
    for edge in arr.edges:
        neighbors.setdefault(edge.left, []).append(edge.right)
        neighbors.setdefault(edge.right, []).append(edge.left)
    depth = {arr.unbounded_face.id: 0}
    queue = [arr.unbounded_face.id]
    for fid in queue:
        for nxt in neighbors.get(fid, ()):
            if nxt not in depth:
                depth[nxt] = depth[fid] + 1
                queue.append(nxt)
    return depth


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def winding_numbers(arr, oriented_curves):
    """Winding of a family of oriented curves around every face.

    `oriented_curves` maps curve_id -> +1/-1 (sign relative to the stored
    direction).  Faces not separated by the family share a value; the
    unbounded face is 0.
    """
    # face -> [(face across an edge, winding step)], in edge order
    across = {}
    for edge in arr.edges:
        sign = oriented_curves.get(edge.curve, 0)
        across.setdefault(edge.left, []).append((edge.right, -sign))
        if edge.right != edge.left:
            across.setdefault(edge.right, []).append((edge.left, sign))
    values = {arr.unbounded_face.id: 0}
    queue = [arr.unbounded_face.id]
    while queue:
        fid = queue.pop()
        base = values[fid]
        for nxt, delta in across.get(fid, ()):
            target = base + delta
            if nxt in values:
                if values[nxt] != target:
                    raise InvalidArrangement(ValidationReport.failed(
                        [Violation("WindingInconsistent", nxt)]))
            else:
                values[nxt] = target
                queue.append(nxt)
    for face in arr.faces:
        values.setdefault(face.id, 0)
    return values


# ---------------------------------------------------------------------------
# insertion (used by surgeries)
# ---------------------------------------------------------------------------

class ArrangementBuilder:
    """Curve insertion into a CurveArrangement.

    The builder keeps the arrangement's frozen records in four id-keyed
    dicts (`crossings`, `edges`, `curves`, `faces`) and changes a record by
    storing a `dataclasses.replace` copy of it; `freeze` sorts each table by
    id into a new CurveArrangement.  `_origins` maps every face the builder
    has held to the input face it lies in; `fresh` never reuses those ids."""

    def __init__(self, arr):
        self.crossings = {c.id: c for c in arr.crossings}
        self.edges = {e.id: e for e in arr.edges}
        self.curves = {c.id: c for c in arr.curves}
        self.faces = {f.id: f for f in arr.faces}
        self._origins = {fid: fid for fid in self.faces}
        self._counter = 0

    def fresh(self, prefix):
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if (candidate not in self.edges and candidate not in self._origins
                    and candidate not in self.crossings and candidate not in self.curves):
                return candidate

    # -- circles without crossings ------------------------------------

    def insert_circle(self, curve_id, host_face, orient, source,
                      label="", draw=None):
        """Insert a closed curve inside `host_face`; returns the inner face id.

        orient +1 encloses its interior on the curve's left, -1 on its right.
        """
        if curve_id in self.curves:
            raise PlanError("DuplicateImage", curve_id)
        edge_id = self.fresh("e_")
        inner_id = self.fresh("f_")
        if orient > 0:
            left, right = inner_id, host_face
            inner_side, host_side = 1, -1
        else:
            left, right = host_face, inner_id
            inner_side, host_side = -1, 1
        self.edges[edge_id] = ArrEdge(edge_id, curve_id, None, left, right)
        self.curves[curve_id] = Curve(curve_id, source, (edge_id,), draw)
        self.faces[inner_id] = Face(inner_id, (((edge_id, inner_side),),),
                                    label=label)
        host = self.faces[host_face]
        self._origins[inner_id] = self._origins[host_face]
        self.faces[host_face] = replace(
            host, contours=host.contours + (((edge_id, host_side),),))
        return inner_id

    # -- routes with crossings ------------------------------------------

    def _split_edge(self, eid, positions):
        """Split edge `eid` at sorted positions into segments of its curve;
        returns (crossing id, segment in, segment out) for each new crossing,
        in order along the edge.  The crossings themselves are left to the
        caller, and face contours still name `eid` until they are retraced.

        An edge with endpoints splits into n+1 segments, segment i running
        into crossing i; a closed edge splits into n segments cyclically,
        segment i-1 running into crossing i."""
        edge = self.edges.pop(eid)
        n_segs = len(positions) if edge.closed else len(positions) + 1
        segs = [self.fresh("e_") for _ in range(n_segs)]
        xids = [self.fresh("x_") for _ in positions]
        starts = [(xid, 2) for xid in xids]
        stops = [(xid, 0) for xid in xids]
        if edge.closed:
            stops = stops[1:] + stops[:1]
        else:
            starts.insert(0, edge.ends[0])
            stops.append(edge.ends[1])
            self._set_ray(*edge.ends[0], (segs[0], 0))
            self._set_ray(*edge.ends[1], (segs[-1], 1))
        for seg, start, stop in zip(segs, starts, stops):
            self.edges[seg] = replace(edge, id=seg, ends=(start, stop))
        curve = self.curves[edge.curve]
        at = curve.edges.index(eid)
        self.curves[edge.curve] = replace(
            curve, edges=curve.edges[:at] + tuple(segs) + curve.edges[at + 1:])
        shift = -1 if edge.closed else 0
        return [(xid, segs[(i + shift) % n_segs], segs[(i + shift + 1) % n_segs])
                for i, xid in enumerate(xids)]

    def _set_ray(self, xid, pos, ray):
        crossing = self.crossings[xid]
        order = crossing.order[:pos] + (ray,) + crossing.order[pos + 1:]
        self.crossings[xid] = replace(crossing, order=order)

    def insert_route(self, curve_id, crossings, runs, source):
        """Insert a closed oriented route crossing existing edges.

        `crossings` and `runs` are an ImageRoute's: (edge id, position)
        pairs, and (face id, hole side or None) pairs with runs[i] after
        crossings[i].  Returns the new crossing ids, parallel to
        `crossings`."""
        if curve_id in self.curves:
            raise PlanError("DuplicateImage", curve_id)
        k = len(crossings)
        if k == 0 or len(runs) != k:
            raise PlanError("RouteShape", curve_id)

        by_edge = {}
        for i, (eid, position) in enumerate(crossings):
            by_edge.setdefault(eid, []).append((position, i))
        for eid, items in by_edge.items():
            ps = [p for p, _ in items]
            if len(set(ps)) != len(ps):
                raise PlanError("RouteShape", f"repeated position on {eid}")
            items.sort()

        route_edge_ids = [self.fresh("e_") for _ in range(k)]
        splits = [None] * k  # (crossing id, segment in, segment out)
        for eid, items in by_edge.items():
            made = self._split_edge(eid, [p for p, _ in items])
            for (_, idx), split in zip(items, made):
                splits[idx] = split

        # crossing i joins route edge i-1 (incoming) and i (outgoing); coming
        # from the crossed edge's left, the route leaves on ray 1 and arrives
        # on ray 3, and from its right the other way round
        out_rays = []
        touched = set()
        for i, (xid, seg_in, seg_out) in enumerate(splits):
            sides = (self.edges[seg_in].left, self.edges[seg_in].right)
            touched.update(sides)
            from_face = self._resolve_side(runs[i - 1][0], sides)
            to_face = self._resolve_side(runs[i][0], sides)
            if from_face == to_face:
                raise PlanError("NonTransverse",
                                f"route {curve_id} does not cross {seg_in}")
            r_in = (route_edge_ids[i - 1], 1)
            r_out = (route_edge_ids[i], 0)
            if from_face == sides[0]:
                # crossing left -> right: ccw rays (e_in, r_out, e_out, r_in)
                out_rays.append(1)
                order = ((seg_in, 1), r_out, (seg_out, 0), r_in)
            else:
                out_rays.append(3)
                order = ((seg_in, 1), r_in, (seg_out, 0), r_out)
            self.crossings[xid] = Crossing(xid, order)

        for i, reid in enumerate(route_edge_ids):
            j = (i + 1) % k
            ends = ((splits[i][0], out_rays[i]), (splits[j][0], 4 - out_rays[j]))
            self.edges[reid] = ArrEdge(reid, curve_id, ends, None, None)
        self.curves[curve_id] = Curve(curve_id, source, tuple(route_edge_ids))

        self._resplit_faces(route_edge_ids, touched, runs)
        return [xid for xid, _, _ in splits]

    def _resolve_side(self, declared_face, sides):
        """Map a declared (possibly already split) face onto an edge side."""
        if declared_face in sides:
            return declared_face
        # after splits the declared id may be stale; match via split records
        for fid in sides:
            if self.origin(fid) == declared_face:
                return fid
        raise PlanError("RouteFaceMismatch",
                        f"face {declared_face} not adjacent to crossed edge")

    def origin(self, fid):
        """The face of the builder's input arrangement that face `fid`, any
        face the builder has held, lies in: a face split off by a route, or
        a circle's inner face, lies where the face it came from lies."""
        return self._origins[fid]

    def _resplit_faces(self, route_edge_ids, touched_faces, runs):
        """Retrace every contour of the faces the route runs through, the
        two sides of each crossed edge, and reassemble those faces from the
        traced cycles."""
        route_set = set(route_edge_ids)
        holes_decl = {}
        for face, holes in runs:
            if holes is not None:
                holes_decl.setdefault(self.origin(face), holes)

        # trace all contour cycles incident to touched faces
        def walk(eid, direction):
            cycle = [(eid, direction)]
            # a contour passes each side of an edge at most once
            for _ in range(2 * len(self.edges)):
                cur = cycle[-1]
                nxt = _next_side(*cur, self.edges[cur[0]].ends, self.crossings)
                if nxt == cycle[0]:
                    return tuple(cycle)
                cycle.append(nxt)
            raise RuntimeError(f"contour from side {cycle[0]} does not close: "
                               "the crossing rays disagree with the edge ends")

        # directed sides belonging to touched faces (old assignment) or routes
        pending = set()
        for eid, edge in self.edges.items():
            if eid in route_set:
                pending.add((eid, 1))
                pending.add((eid, -1))
            else:
                if edge.left in touched_faces:
                    pending.add((eid, 1))
                if edge.right in touched_faces:
                    pending.add((eid, -1))

        cycles = []
        while pending:
            cycle = walk(*min(pending))
            pending.difference_update(cycle)
            cycles.append(cycle)

        # group cycles by the original face they bound
        groups = {}
        for cycle in cycles:
            votes = {_side_face(self.edges[eid], direction)
                     for eid, direction in cycle if eid not in route_set}
            if len(votes) != 1:
                raise PlanError("RouteShape", f"ambiguous face for cycle: {sorted(votes)}")
            groups.setdefault(votes.pop(), []).append(cycle)

        for fid, face_cycles in groups.items():
            face = self.faces.pop(fid)
            route_cycles = [c for c in face_cycles
                            if any(eid in route_set for eid, _ in c)]
            hole_cycles = [c for c in face_cycles
                           if not any(eid in route_set for eid, _ in c)]

            # a closed route's chords join the face's contours with even degree
            if len(route_cycles) < 2:
                raise PlanError("RouteShape", f"route does not split face {fid}")
            if face.unbounded:
                raise PlanError("UnsupportedRoute", "chord through the unbounded face")
            if hole_cycles and len(route_cycles) != 2:
                raise PlanError("UnsupportedRoute",
                                "multiple chords through a face with holes")
            side = holes_decl.get(self.origin(fid))
            if hole_cycles and side is None:
                raise PlanError("UnsupportedRoute",
                                f"face {fid} split with undeclared hole side")

            new_ids = []
            for cycle in sorted(route_cycles, key=min):
                new_id = self.fresh("f_")
                self._origins[new_id] = self._origins[fid]
                self.faces[new_id] = replace(face, id=new_id, contours=(cycle,))
                new_ids.append(new_id)
                self._set_route_sides(cycle, new_id)
            if hole_cycles:
                target = self._piece_on_side(new_ids, route_set, side)
                piece = self.faces[target]
                self.faces[target] = replace(
                    piece, contours=piece.contours + tuple(hole_cycles))
                for cycle in hole_cycles:
                    self._set_route_sides(cycle, target)

    def _piece_on_side(self, new_ids, route_set, side):
        for fid in new_ids:
            for contour in self.faces[fid].contours:
                for eid, direction in contour:
                    if eid in route_set:
                        if side == "left" and direction > 0:
                            return fid
                        if side == "right" and direction < 0:
                            return fid
        raise PlanError("UnsupportedRoute", "hole side does not touch the route")

    def _set_route_sides(self, cycle, face_id):
        for eid, direction in cycle:
            edge = self.edges[eid]
            self.edges[eid] = (replace(edge, left=face_id) if direction > 0
                               else replace(edge, right=face_id))

    # -- retagging and freezing -----------------------------------------

    def retag_curve(self, curve_id, source):
        self.curves[curve_id] = replace(self.curves[curve_id], source=source)

    def freeze(self):
        return CurveArrangement(*(tuple(table[key] for key in sorted(table))
                                  for table in (self.crossings, self.edges,
                                                self.curves, self.faces)))
