"""Line-oriented text formats: .spoly, .arr (with born-map data), .plan.

All three are whitespace-delimited with one record per line and ``#``
comments.  Parsing preserves record order, so emit/parse round-trips are
exact on the in-memory values.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import ArrEdge, Crossing, Curve, CurveArrangement, Face
from .bornmap import BornMap, StrandAssignment
from .core import (BranchArc, EndRoles, SheetSpec, SimplePolyhedron,
                   VertexSpec, WingTraversal)
from .errors import ParseError
from .surgery import (DiskRegion, ImageCircle, ImageRoute, PlanCircle,
                      PlanEvent, PlanSegment, RelocationWitness, SurfacePatch,
                      SurgeryPlan)


def _records(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _sign(token, lineno):
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise ParseError(f"line {lineno}: expected + or -, got {token!r}")


def _int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def _end(token, lineno):
    """An ``id:n`` reference to a numbered end or slot."""
    name, sep, number = token.rpartition(":")
    if not sep:
        raise ParseError(f"line {lineno}: expected id:n, got {token!r}")
    return name, _int(number, lineno)


def _sign_str(value):
    return "+" if value > 0 else "-"


# ---------------------------------------------------------------------------
# .spoly
# ---------------------------------------------------------------------------

def emit_spoly(poly):
    out = [f"POLY {poly.name or 'unnamed'}"]
    for sheet in poly.sheets:
        kind = "orientable" if sheet.orientable else "nonorientable"
        out.append(f"SHEET {sheet.id} {kind} {sheet.genus}")
        for circuit in sheet.circuits:
            travs = " ".join(f"{t.arc}:{t.slot}:{_sign_str(t.direction)}"
                             for t in circuit)
            out.append(f"CIRCUIT {sheet.id} {travs}")
    for arc in poly.arcs:
        if arc.closed:
            shape = "closed"
        else:
            (v0, p0), (v1, p1) = arc.endpoints
            shape = f"ends {v0}:{p0} {v1}:{p1}"
        out.append(f"ARC {arc.id} {arc.kind} {shape} monodromy {arc.monodromy}")
    for vertex in poly.vertices:
        ends = " ".join(f"{aid}:{end}" for aid, end in vertex.ends)
        roles = " ".join(f"{r.free}:{r.lq}:{r.rq}" for r in vertex.roles)
        out.append(f"VERTEX {vertex.id} ends {ends} roles {roles}")
    return "\n".join(out) + "\n"


def parse_spoly(text):
    name = ""
    sheets = []          # (id, orientable, genus)
    circuits = {}        # sheet id -> list of circuits
    order = []
    arcs = []
    vertices = []
    for lineno, tokens in _records(text):
        tag = tokens[0]
        if tag == "POLY":
            name = tokens[1] if len(tokens) > 1 else ""
        elif tag == "SHEET":
            if len(tokens) != 4 or tokens[2] not in ("orientable", "nonorientable"):
                raise ParseError(f"line {lineno}: bad SHEET record")
            sheets.append((tokens[1], tokens[2] == "orientable",
                           _int(tokens[3], lineno)))
            order.append(tokens[1])
            circuits.setdefault(tokens[1], [])
        elif tag == "CIRCUIT":
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: empty CIRCUIT")
            sid = tokens[1]
            if sid not in circuits:
                raise ParseError(f"line {lineno}: CIRCUIT before SHEET {sid}")
            travs = []
            for token in tokens[2:]:
                try:
                    arc, slot, d = token.rsplit(":", 2)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad traversal {token!r}")
                travs.append(WingTraversal(arc, _int(slot, lineno), _sign(d, lineno)))
            circuits[sid].append(tuple(travs))
        elif tag == "ARC":
            if len(tokens) < 4:
                raise ParseError(f"line {lineno}: bad ARC record")
            if tokens[3] == "closed":
                endpoints = None
                rest = tokens[4:]
            elif tokens[3] == "ends" and len(tokens) >= 6:
                endpoints = (_end(tokens[4], lineno), _end(tokens[5], lineno))
                rest = tokens[6:]
            else:
                raise ParseError(f"line {lineno}: bad ARC shape {tokens[3]!r}")
            if rest[:1] != ["monodromy"] or len(rest) != 2:
                raise ParseError(f"line {lineno}: bad ARC monodromy")
            arcs.append(BranchArc(tokens[1], tokens[2], endpoints, rest[1]))
        elif tag == "VERTEX":
            if len(tokens) != 12 or tokens[2] != "ends" or tokens[7] != "roles":
                raise ParseError(f"line {lineno}: bad VERTEX record")
            ends = [_end(token, lineno) for token in tokens[3:7]]
            roles = []
            for token in tokens[8:12]:
                fields = token.split(":")
                if len(fields) != 3:
                    raise ParseError(f"line {lineno}: bad VERTEX role {token!r}")
                roles.append(EndRoles(*(_int(f, lineno) for f in fields)))
            vertices.append(VertexSpec(tokens[1], tuple(ends), tuple(roles)))
        else:
            raise ParseError(f"line {lineno}: unknown record {tag!r}")
    sheet_specs = tuple(
        SheetSpec(sid, orientable, genus, tuple(circuits[sid]))
        for sid, orientable, genus in sheets)
    return SimplePolyhedron(sheet_specs, tuple(arcs), tuple(vertices), name=name)


# ---------------------------------------------------------------------------
# .arr (arrangement plus born-map data)
# ---------------------------------------------------------------------------

def emit_arr(born_or_arr):
    if isinstance(born_or_arr, BornMap):
        born = born_or_arr
        arr = born.arrangement
    else:
        born = None
        arr = born_or_arr
    out = []
    if born is not None and born.name:
        out.append(f"NAME {born.name}")
    for crossing in arr.crossings:
        rays = " ".join(f"{eid}:{end}" for eid, end in crossing.order)
        out.append(f"CROSSING {crossing.id} {rays}")
    for edge in arr.edges:
        if edge.closed:
            shape = "closed"
        else:
            (x0, p0), (x1, p1) = edge.ends
            shape = f"ends {x0}:{p0} {x1}:{p1}"
        out.append(f"EDGE {edge.id} curve {edge.curve} {shape} "
                   f"left {edge.left} right {edge.right}")
    for curve in arr.curves:
        source = f"{curve.source[0]}:{curve.source[1]}"
        line = f"CURVE {curve.id} source {source} edges " + " ".join(curve.edges)
        if curve.draw:
            line += " draw " + " ".join(repr(x) for x in curve.draw)
        out.append(line)
    for face in arr.faces:
        line = f"FACE {face.id}"
        if face.unbounded:
            line += " unbounded"
        if face.label:
            line += f" label {face.label}"
        if face.draw:
            line += " draw " + " ".join(repr(x) for x in face.draw)
        out.append(line)
        for contour in face.contours:
            sides = " ".join(f"{eid}:{_sign_str(d)}" for eid, d in contour)
            out.append(f"CONTOUR {face.id} {sides}")
    if born is not None:
        for fid in sorted(born.fiber_counts):
            out.append(f"COUNT {fid} {born.fiber_counts[fid]}")
        for key in sorted(born.assignments):
            a = born.assignments[key]
            out.append(f"ASSIGN {key} curve {a.curve} dir {_sign_str(a.direction)} "
                       f"heavy {a.heavy}")
            sides = " ".join(f"{aid}:{slot}:{side}"
                             for (aid, slot), side in a.wing_sides)
            out.append(f"WINGSIDE {key} {sides}")
        for vid in sorted(born.vertex_crossings):
            out.append(f"VERTEXMAP {vid} {born.vertex_crossings[vid]}")
    return "\n".join(out) + "\n"


def parse_arr(text):
    """Returns (CurveArrangement, born_data).

    born_data holds 'counts', 'assignments', 'vertexmap', 'name'; empty
    when the file carries a bare arrangement.
    """
    crossings = []
    edges = []
    curves = []
    faces = []
    contours = {}
    face_order = []
    counts = {}
    assignments = {}
    wing_sides = {}
    vertexmap = {}
    name = ""
    for lineno, tokens in _records(text):
        tag = tokens[0]
        if tag == "NAME":
            name = tokens[1]
        elif tag == "CROSSING":
            rays = []
            for token in tokens[2:6]:
                eid, end = token.rsplit(":", 1)
                rays.append((eid, int(end)))
            crossings.append(Crossing(tokens[1], tuple(rays)))
        elif tag == "EDGE":
            if tokens[2] != "curve":
                raise ParseError(f"line {lineno}: bad EDGE record")
            curve = tokens[3]
            if tokens[4] == "closed":
                ends = None
                rest = tokens[5:]
            elif tokens[4] == "ends":
                x0, p0 = tokens[5].rsplit(":", 1)
                x1, p1 = tokens[6].rsplit(":", 1)
                ends = ((x0, int(p0)), (x1, int(p1)))
                rest = tokens[7:]
            else:
                raise ParseError(f"line {lineno}: bad EDGE shape")
            if rest[0] != "left" or rest[2] != "right":
                raise ParseError(f"line {lineno}: bad EDGE faces")
            edges.append(ArrEdge(tokens[1], curve, ends, rest[1], rest[3]))
        elif tag == "CURVE":
            if tokens[2] != "source" or tokens[4] != "edges":
                raise ParseError(f"line {lineno}: bad CURVE record")
            kind, _, label = tokens[3].partition(":")
            if "draw" in tokens:
                at = tokens.index("draw")
                edge_ids = tokens[5:at]
                draw = tuple(float(x) for x in tokens[at + 1:])
            else:
                edge_ids = tokens[5:]
                draw = None
            curves.append(Curve(tokens[1], (kind, label), tuple(edge_ids), draw))
        elif tag == "FACE":
            rest = tokens[2:]
            unbounded = False
            label = ""
            draw = None
            while rest:
                if rest[0] == "unbounded":
                    unbounded = True
                    rest = rest[1:]
                elif rest[0] == "label":
                    label = rest[1]
                    rest = rest[2:]
                elif rest[0] == "draw":
                    draw = tuple(float(x) for x in rest[1:3])
                    rest = rest[3:]
                else:
                    raise ParseError(f"line {lineno}: bad FACE field {rest[0]!r}")
            faces.append((tokens[1], unbounded, label, draw))
            face_order.append(tokens[1])
            contours.setdefault(tokens[1], [])
        elif tag == "CONTOUR":
            fid = tokens[1]
            if fid not in contours:
                raise ParseError(f"line {lineno}: CONTOUR before FACE {fid}")
            sides = []
            for token in tokens[2:]:
                eid, d = token.rsplit(":", 1)
                sides.append((eid, _sign(d, lineno)))
            contours[fid].append(tuple(sides))
        elif tag == "COUNT":
            counts[tokens[1]] = int(tokens[2])
        elif tag == "ASSIGN":
            assignments[tokens[1]] = {
                "curve": tokens[3],
                "direction": _sign(tokens[5], lineno),
                "heavy": tokens[7],
            }
        elif tag == "WINGSIDE":
            sides = []
            for token in tokens[2:]:
                aid, slot, side = token.rsplit(":", 2)
                sides.append(((aid, int(slot)), side))
            wing_sides[tokens[1]] = tuple(sides)
        elif tag == "VERTEXMAP":
            vertexmap[tokens[1]] = tokens[2]
        else:
            raise ParseError(f"line {lineno}: unknown record {tag!r}")
    face_specs = tuple(Face(fid, tuple(contours[fid]), unbounded, label, draw)
                       for fid, unbounded, label, draw in faces)
    arr = CurveArrangement(tuple(crossings), tuple(edges), tuple(curves),
                           face_specs)
    born_data = {"counts": counts, "assignments": assignments,
                 "wing_sides": wing_sides, "vertexmap": vertexmap, "name": name}
    return arr, born_data


def assemble_born_map(poly, arr, born_data):
    assignments = {}
    for key, fields in born_data["assignments"].items():
        assignments[key] = StrandAssignment(
            curve=fields["curve"], direction=fields["direction"],
            heavy=fields["heavy"],
            wing_sides=born_data["wing_sides"].get(key, ()))
    return BornMap(polyhedron=poly, arrangement=arr,
                   assignments=assignments,
                   fiber_counts=dict(born_data["counts"]),
                   vertex_crossings=dict(born_data["vertexmap"]),
                   name=born_data["name"])


# ---------------------------------------------------------------------------
# .plan
# ---------------------------------------------------------------------------

def emit_plan(plan, base_spoly="base.spoly", base_arr="base.arr"):
    out = [f"PLAN {plan.name or 'unnamed'}",
           f"BASE {base_spoly} {base_arr}"]
    patch = plan.patch
    kind = "orientable" if patch.orientable else "nonorientable"
    out.append(f"PATCH {kind} genus {patch.genus} boundaries {patch.boundaries} "
               f"id {patch.id}")
    for circle in plan.circles:
        out.append(f"CIRCLE {circle.id} patchdir {_sign_str(circle.patch_dir)}")
        for i, seg in enumerate(circle.segments):
            line = f"SEG {circle.id} {i} sheet {seg.sheet}"
            if seg.side_genus is not None:
                line += f" sidegenus {seg.side_genus}"
            if seg.side_circuits is not None:
                listed = ",".join(str(x) for x in seg.side_circuits) or "-"
                line += f" sidecircuits {listed}"
            out.append(line)
        for i, event in enumerate(circle.events):
            out.append(f"EVENT {circle.id} {i} arc {event.arc} "
                       f"pos {event.position} slotin {event.slot_in} "
                       f"slotout {event.slot_out}")
        image = circle.image
        if isinstance(image, ImageCircle):
            line = f"IMAGECIRCLE {circle.id} face {image.face}"
            if image.inside:
                line += f" inside {image.inside}"
            line += f" orient {_sign_str(image.orient)}"
            if image.label:
                line += f" label {image.label}"
            if image.draw:
                line += " draw " + " ".join(repr(x) for x in image.draw)
            out.append(line)
        else:
            crosses = " ".join(f"{eid}@{pos}" for eid, pos in image.crossings)
            out.append(f"IMAGEROUTE {circle.id} cross {crosses}")
            for i, (fid, holes) in enumerate(image.runs):
                line = f"IMAGERUN {circle.id} {i} face {fid}"
                if holes:
                    line += f" holes {holes}"
                out.append(line)
    for disk in plan.disks:
        out.append(f"DISK {disk.circle} faces " + " ".join(disk.faces))
    if plan.witness:
        w = plan.witness
        nesting = " ".join(f"{cid}:{parent or '-'}:{_sign_str(orient)}"
                           for cid, parent, orient in w.nesting)
        kind = "orientable" if w.surface_orientable else "nonorientable"
        out.append(f"WITNESS nesting {nesting} surface {kind} "
                   f"genus {w.surface_genus} boundaries {w.surface_boundaries}")
    return "\n".join(out) + "\n"


def parse_plan(text, base=None):
    """Returns (SurgeryPlan, (base_spoly, base_arr)); `base` may be supplied
    later by the caller, the plan is built with base=None otherwise."""
    name = ""
    base_files = ("base.spoly", "base.arr")
    patch = None
    order = []
    patch_dirs = {}
    segments = {}
    events = {}
    images = {}
    route_crossings = {}
    route_runs = {}
    disks = []
    witness = None
    for lineno, tokens in _records(text):
        tag = tokens[0]
        if tag == "PLAN":
            name = tokens[1] if len(tokens) > 1 else ""
        elif tag == "BASE":
            base_files = (tokens[1], tokens[2])
        elif tag == "PATCH":
            patch = SurfacePatch(
                orientable=tokens[1] == "orientable",
                genus=int(tokens[3]), boundaries=int(tokens[5]),
                id=tokens[7])
        elif tag == "CIRCLE":
            order.append(tokens[1])
            patch_dirs[tokens[1]] = _sign(tokens[3], lineno)
            segments.setdefault(tokens[1], [])
            events.setdefault(tokens[1], [])
        elif tag == "SEG":
            cid, index = tokens[1], int(tokens[2])
            side_genus = None
            side_circuits = None
            rest = tokens[5:]
            while rest:
                if rest[0] == "sidegenus":
                    side_genus = int(rest[1])
                    rest = rest[2:]
                elif rest[0] == "sidecircuits":
                    side_circuits = () if rest[1] == "-" else \
                        tuple(int(x) for x in rest[1].split(","))
                    rest = rest[2:]
                else:
                    raise ParseError(f"line {lineno}: bad SEG field")
            segments[cid].append((index, PlanSegment(tokens[4], side_genus,
                                                     side_circuits)))
        elif tag == "EVENT":
            cid, index = tokens[1], int(tokens[2])
            events[cid].append((index, PlanEvent(
                arc=tokens[4], position=Fraction(tokens[6]),
                slot_in=int(tokens[8]), slot_out=int(tokens[10]))))
        elif tag == "IMAGECIRCLE":
            cid = tokens[1]
            face = tokens[3]
            rest = tokens[4:]
            inside = None
            orient = 1
            label = ""
            draw = None
            while rest:
                if rest[0] == "inside":
                    inside = rest[1]
                    rest = rest[2:]
                elif rest[0] == "orient":
                    orient = _sign(rest[1], lineno)
                    rest = rest[2:]
                elif rest[0] == "label":
                    label = rest[1]
                    rest = rest[2:]
                elif rest[0] == "draw":
                    draw = tuple(float(x) for x in rest[1:4])
                    rest = rest[4:]
                else:
                    raise ParseError(f"line {lineno}: bad IMAGECIRCLE field")
            images[cid] = ImageCircle(face, inside, orient, label, draw)
        elif tag == "IMAGEROUTE":
            cid = tokens[1]
            crossings = []
            for token in tokens[3:]:
                eid, _, pos = token.partition("@")
                crossings.append((eid, Fraction(pos)))
            route_crossings[cid] = tuple(crossings)
        elif tag == "IMAGERUN":
            cid, index = tokens[1], int(tokens[2])
            holes = None
            if len(tokens) > 5 and tokens[5] == "holes":
                holes = tokens[6]
            route_runs.setdefault(cid, []).append((index, (tokens[4], holes)))
        elif tag == "DISK":
            disks.append(DiskRegion(tokens[1], tuple(tokens[3:])))
        elif tag == "WITNESS":
            at = tokens.index("surface")
            nesting = []
            for token in tokens[2:at]:
                cid, parent, orient = token.rsplit(":", 2)
                nesting.append((cid, None if parent == "-" else parent,
                                1 if orient == "+" else -1))
            witness = RelocationWitness(
                nesting=tuple(nesting),
                surface_orientable=tokens[at + 1] == "orientable",
                surface_genus=int(tokens[at + 3]),
                surface_boundaries=int(tokens[at + 5]))
        else:
            raise ParseError(f"line {lineno}: unknown record {tag!r}")
    if patch is None:
        raise ParseError("plan has no PATCH record")
    circles = []
    for cid in order:
        segs = tuple(s for _, s in sorted(segments[cid]))
        evs = tuple(e for _, e in sorted(events[cid]))
        if cid in images:
            image = images[cid]
        else:
            runs = tuple(r for _, r in sorted(route_runs.get(cid, [])))
            image = ImageRoute(route_crossings.get(cid, ()), runs)
        circles.append(PlanCircle(cid, segs, evs, image, patch_dirs[cid]))
    plan = SurgeryPlan(base=base, circles=tuple(circles), patch=patch,
                       disks=tuple(disks), witness=witness, name=name)
    return plan, base_files
