"""Line-oriented text formats: .spoly, .arr (with born-map data), .plan.

All three are whitespace-delimited with one record per line and ``#``
comments.  Parsing preserves record order, so emit/parse round-trips are
exact on the in-memory values.
"""

from __future__ import annotations

import functools
import re
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter

from .arrangement import ArrEdge, Crossing, Curve, CurveArrangement, Face
from .bornmap import SIDES, BornMap, StrandAssignment
from .core import (BranchArc, EndRoles, SheetSpec, SimplePolyhedron,
                   VertexSpec, WingTraversal)
from .errors import EmitError, ParseError
from .surgery import (DiskRegion, ImageCircle, ImageRoute, PlanCircle,
                      PlanEvent, PlanSegment, RelocationWitness, SurfacePatch,
                      SurgeryPlan)


def _records(text):
    if "\r" in text:  # only \n, \r\n and \r end a line, as in open()
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), 1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if tokens:
            yield lineno, tokens


@functools.cache
def _template(template):
    words = template.split()
    keywords = itemgetter(*(at for at, word in enumerate(words) if word != "_"))
    return len(words), keywords, keywords(words)


def _shape(tokens, template, more=False):
    """Checks a record against a template such as ``"COUNT _ _"``: the
    record's length and the keyword at every position that is not ``_``.
    With ``more``, tokens after the template are allowed."""
    size, keywords, expected = _template(template)
    if len(tokens) != size and (len(tokens) < size or not more) or \
            keywords(tokens) != expected:
        raise ParseError(f"bad {tokens[0]} record")


def _options(tokens, tag, arity):
    """Keyword fields after a record's fixed part.  ``arity`` gives each
    keyword's number of values; a keyword maps to True, to its one value,
    or to the tuple of its values."""
    options = {}
    at = 0
    while at < len(tokens):
        key = tokens[at]
        if key not in arity or at + 1 + arity[key] > len(tokens):
            raise ParseError(f"bad {tag} field {key!r}")
        end = at + 1 + arity[key]
        values = tokens[at + 1:end]
        options[key] = tuple(values) if len(values) > 1 else \
            values[0] if values else True
        at = end
    return options


def _fields(token, count):
    """The ``count`` fields of a reference such as ``arc:slot:+``; only the
    last ``count - 1`` colons separate, so the id may contain colons."""
    fields = token.rsplit(":", count - 1)
    if len(fields) != count:
        raise ParseError(f"expected {count} fields separated "
                         f"by ':', got {token!r}")
    return fields


_SIGNS = {"+": 1, "-": -1}


def _sign(token):
    if token in _SIGNS:
        return _SIGNS[token]
    raise ParseError(f"expected + or -, got {token!r}")


def _side(token):
    if token not in SIDES:
        raise ParseError(f"expected L or R, got {token!r}")
    return token


def _orientable(token):
    if token not in ("orientable", "nonorientable"):
        raise ParseError(f"expected orientable or nonorientable, got {token!r}")
    return token == "orientable"


def _number(kind, what, token):
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected {what}, got {token!r}")


def _int(token):
    return _number(int, "an integer", token)


def _fraction(token):
    return _number(Fraction, "a fraction", token)


def _end(token):
    """An ``id:n`` reference to a numbered end or slot."""
    name, number = _fields(token, 2)
    return name, _int(number)


def _floats(values):
    return tuple(_number(float, "a number", x) for x in values)


def _sign_str(value):
    return "+" if value > 0 else "-"


_UNREADABLE = re.compile(r"[\s#]")


def _word(value, what, avoid=""):
    """`value`, a name or id, as an emitter writes it: a whole token, or a
    field of a token that the parser splits at the characters in `avoid`.
    Raises EmitError naming the value when the parser would not read it
    back as it is: an empty value, whitespace, ``#`` (a comment) or one of
    `avoid`."""
    text = str(value)
    found = _UNREADABLE.search(text)
    if text and not found and not (avoid and any(c in text for c in avoid)):
        return text
    if not text:
        reason = "it is empty"
    elif found:
        reason = ("it holds '#', which starts a comment" if found[0] == "#"
                  else "it holds whitespace")
    else:
        reason = (f"it holds {next(c for c in avoid if c in text)!r}, which "
                  f"separates the fields of its token")
    raise EmitError(f"cannot write {what} {text!r}: {reason}")


def _header(keyword, name, what):
    """A ``POLY``, ``NAME`` or ``PLAN`` record: the bare keyword for an
    empty name."""
    return f"{keyword} {_word(name, what)}" if name else keyword


def _name(tokens):
    """The name a ``POLY``, ``NAME`` or ``PLAN`` record gives: one token,
    or "" for the bare keyword."""
    if len(tokens) > 2:
        raise ParseError(f"bad {tokens[0]} record")
    return tokens[1] if len(tokens) > 1 else ""


def _once(seen, tokens):
    """Marks a record that a file holds at most once, such as ``POLY``; a
    second one is a ParseError, not an overwrite."""
    if tokens[0] in seen:
        raise ParseError(f"repeated {tokens[0]} record")
    seen.add(tokens[0])


# ---------------------------------------------------------------------------
# .spoly
# ---------------------------------------------------------------------------

def emit_spoly(poly):
    out = [_header("POLY", poly.name, "polyhedron name")]
    for sheet in poly.sheets:
        sid = _word(sheet.id, "sheet id")
        kind = "orientable" if sheet.orientable else "nonorientable"
        out.append(f"SHEET {sid} {kind} {sheet.genus}")
        for circuit in sheet.circuits:
            travs = " ".join(
                f"{_word(t.arc, 'arc id')}:{t.slot}:{_sign_str(t.direction)}"
                for t in circuit)
            out.append(f"CIRCUIT {sid} {travs}")
    for arc in poly.arcs:
        if arc.closed:
            shape = "closed"
        else:
            (v0, p0), (v1, p1) = arc.endpoints
            shape = (f"ends {_word(v0, 'vertex id')}:{p0} "
                     f"{_word(v1, 'vertex id')}:{p1}")
        out.append(f"ARC {_word(arc.id, 'arc id')} {arc.kind} {shape} "
                   f"monodromy {arc.monodromy}")
    for vertex in poly.vertices:
        ends = " ".join(f"{_word(aid, 'arc id')}:{end}"
                        for aid, end in vertex.ends)
        roles = " ".join(f"{r.free}:{r.lq}:{r.rq}" for r in vertex.roles)
        out.append(f"VERTEX {_word(vertex.id, 'vertex id')} ends {ends} "
                   f"roles {roles}")
    return "\n".join(out) + "\n"


def parse_spoly(text):
    name = ""
    sheets = []          # (id, orientable, genus)
    circuits = {}        # sheet id -> list of circuits
    arcs = []
    vertices = []
    seen = set()
    for lineno, tokens in _records(text):
        try:
            tag = tokens[0]
            if tag == "CIRCUIT":
                if len(tokens) < 3:
                    _shape(tokens, "CIRCUIT _ _", more=True)
                sid = tokens[1]
                if sid not in circuits:
                    raise ParseError(f"CIRCUIT before SHEET {sid}")
                travs = []
                for token in tokens[2:]:
                    try:
                        arc, slot, d = token.rsplit(":", 2)
                        travs.append(WingTraversal(arc, int(slot), _SIGNS[d]))
                    except (ValueError, KeyError):
                        # the checked readers raise the ParseError
                        arc, slot, d = _fields(token, 3)
                        travs.append(WingTraversal(arc, _int(slot), _sign(d)))
                circuits[sid].append(tuple(travs))
            elif tag == "SHEET":
                if len(tokens) != 4:
                    _shape(tokens, "SHEET _ _ _")
                sheets.append((tokens[1], _orientable(tokens[2]),
                               _int(tokens[3])))
                circuits.setdefault(tokens[1], [])
            elif tag == "ARC":
                if tokens[3:4] == ["ends"]:
                    _shape(tokens, "ARC _ _ ends _ _ monodromy _")
                    endpoints = (_end(tokens[4]), _end(tokens[5]))
                else:
                    _shape(tokens, "ARC _ _ closed monodromy _")
                    endpoints = None
                arcs.append(BranchArc(tokens[1], tokens[2], endpoints, tokens[-1]))
            elif tag == "VERTEX":
                _shape(tokens, "VERTEX _ ends _ _ _ _ roles _ _ _ _")
                ends = [_end(token) for token in tokens[3:7]]
                roles = [EndRoles(*(_int(f) for f in _fields(token, 3)))
                         for token in tokens[8:12]]
                vertices.append(VertexSpec(tokens[1], tuple(ends), tuple(roles)))
            elif tag == "POLY":
                _once(seen, tokens)
                name = _name(tokens)
            else:
                raise ParseError(f"unknown record {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    sheet_specs = tuple(
        SheetSpec(sid, orientable, genus, tuple(circuits[sid]))
        for sid, orientable, genus in sheets)
    return SimplePolyhedron(sheet_specs, tuple(arcs), tuple(vertices), name=name)


# ---------------------------------------------------------------------------
# .arr (arrangement plus born-map data)
# ---------------------------------------------------------------------------

def emit_arr(born):
    arr = born.arrangement
    out = [_header("NAME", born.name, "map name")] if born.name else []
    for crossing in arr.crossings:
        rays = " ".join(f"{_word(eid, 'edge id')}:{end}"
                        for eid, end in crossing.order)
        out.append(f"CROSSING {_word(crossing.id, 'crossing id')} {rays}")
    for edge in arr.edges:
        if edge.closed:
            shape = "closed"
        else:
            (x0, p0), (x1, p1) = edge.ends
            shape = (f"ends {_word(x0, 'crossing id')}:{p0} "
                     f"{_word(x1, 'crossing id')}:{p1}")
        out.append(f"EDGE {_word(edge.id, 'edge id')} "
                   f"curve {_word(edge.curve, 'curve id')} {shape} "
                   f"left {_word(edge.left, 'face id')} "
                   f"right {_word(edge.right, 'face id')}")
    for curve in arr.curves:
        # the parser splits the source at its first ':'
        kind, label = curve.source
        source = (f"{_word(kind, 'curve source kind', ':')}:"
                  f"{_word(label, 'curve source label')}")
        edges = [_word(eid, "edge id") for eid in curve.edges]
        if "draw" in edges:
            raise EmitError(f"cannot write edge id 'draw' of curve "
                            f"{curve.id!r}: it would read back as the "
                            f"draw keyword")
        line = (f"CURVE {_word(curve.id, 'curve id')} source {source} "
                f"edges " + " ".join(edges))
        if curve.draw:
            line += " draw " + " ".join(repr(x) for x in curve.draw)
        out.append(line)
    for face in arr.faces:
        fid = _word(face.id, "face id")
        line = f"FACE {fid}"
        if face.unbounded:
            line += " unbounded"
        if face.label:
            line += f" label {_word(face.label, 'face label')}"
        if face.draw:
            line += " draw " + " ".join(repr(x) for x in face.draw)
        out.append(line)
        for contour in face.contours:
            sides = " ".join(f"{_word(eid, 'edge id')}:{_sign_str(d)}"
                             for eid, d in contour)
            out.append(f"CONTOUR {fid} {sides}")
    for fid in sorted(born.fiber_counts):
        out.append(f"COUNT {_word(fid, 'face id')} {born.fiber_counts[fid]}")
    for key in sorted(born.assignments):
        a = born.assignments[key]
        key = _word(key, "strand key")
        if a.direction not in (1, -1):
            raise EmitError(f"cannot write direction {a.direction!r}: it is "
                            f"neither +1 nor -1")
        out.append(f"ASSIGN {key} curve {_word(a.curve, 'curve id')} "
                   f"dir {_sign_str(a.direction)} "
                   f"heavy {_written_side(a.heavy, 'heavy side')}")
        sides = " ".join(f"{_word(aid, 'arc id')}:{slot}:"
                         f"{_written_side(side, 'wing side')}"
                         for (aid, slot), side in a.wing_sides)
        out.append(f"WINGSIDE {key} {sides}")
    for vid in sorted(born.vertex_crossings):
        out.append(f"VERTEXMAP {_word(vid, 'vertex id')} "
                   f"{_word(born.vertex_crossings[vid], 'crossing id')}")
    return "\n".join(out) + "\n"


def _written_side(side, what):
    if side not in SIDES:
        raise EmitError(f"cannot write {what} {side!r}: it is neither L nor R")
    return side


def _put(table, tokens, value):
    """Store the value of record `tokens` under its key, tokens[1]; a
    second record for the same key is a ParseError, not an overwrite."""
    if tokens[1] in table:
        raise ParseError(f"repeated {tokens[0]} {tokens[1]}")
    table[tokens[1]] = value


def parse_arr(text):
    """Returns (CurveArrangement, born_data).

    born_data holds 'counts', 'assignments' (StrandAssignment records),
    'vertexmap' and 'name'; empty when the file carries a bare arrangement.
    """
    crossings = []
    edges = []
    curves = []
    faces = []
    contours = {}
    counts = {}
    assignments = {}
    vertexmap = {}
    name = ""
    seen = set()
    for lineno, tokens in _records(text):
        try:
            tag = tokens[0]
            if tag == "NAME":
                _once(seen, tokens)
                name = _name(tokens)
            elif tag == "CROSSING":
                _shape(tokens, "CROSSING _ _ _ _ _")
                rays = tuple(_end(token) for token in tokens[2:])
                crossings.append(Crossing(tokens[1], rays))
            elif tag == "EDGE":
                if tokens[4:5] == ["ends"]:
                    _shape(tokens, "EDGE _ curve _ ends _ _ left _ right _")
                    ends = (_end(tokens[5]), _end(tokens[6]))
                else:
                    _shape(tokens, "EDGE _ curve _ closed left _ right _")
                    ends = None
                edges.append(ArrEdge(tokens[1], tokens[3], ends,
                                     tokens[-3], tokens[-1]))
            elif tag == "CURVE":
                _shape(tokens, "CURVE _ source _ edges", more=True)
                kind, _, label = tokens[3].partition(":")
                edge_ids = tokens[5:]
                draw = None
                if "draw" in edge_ids:
                    at = edge_ids.index("draw")
                    options = _options(edge_ids[at:], tag, {"draw": 3})
                    draw = _floats(options["draw"])
                    edge_ids = edge_ids[:at]
                curves.append(Curve(tokens[1], (kind, label), tuple(edge_ids), draw))
            elif tag == "FACE":
                _shape(tokens, "FACE _", more=True)
                options = _options(tokens[2:], tag,
                                   {"unbounded": 0, "label": 1, "draw": 2})
                draw = _floats(options["draw"]) if "draw" in options else None
                faces.append((tokens[1], "unbounded" in options,
                              options.get("label", ""), draw))
                contours.setdefault(tokens[1], [])
            elif tag == "CONTOUR":
                _shape(tokens, "CONTOUR _", more=True)
                fid = tokens[1]
                if fid not in contours:
                    raise ParseError(f"CONTOUR before FACE {fid}")
                sides = []
                for token in tokens[2:]:
                    eid, d = _fields(token, 2)
                    sides.append((eid, _sign(d)))
                contours[fid].append(tuple(sides))
            elif tag == "COUNT":
                _shape(tokens, "COUNT _ _")
                _put(counts, tokens, _int(tokens[2]))
            elif tag == "ASSIGN":
                _shape(tokens, "ASSIGN _ curve _ dir _ heavy _")
                _put(assignments, tokens, StrandAssignment(
                    curve=tokens[3], direction=_sign(tokens[5]),
                    heavy=_side(tokens[7]), wing_sides=()))
            elif tag == "WINGSIDE":
                _shape(tokens, "WINGSIDE _", more=True)
                key = tokens[1]
                if key not in assignments:
                    raise ParseError(f"WINGSIDE before ASSIGN {key}")
                if (tag, key) in seen:
                    raise ParseError(f"repeated WINGSIDE {key}")
                seen.add((tag, key))
                sides = []
                for token in tokens[2:]:
                    aid, slot, side = _fields(token, 3)
                    sides.append(((aid, _int(slot)), _side(side)))
                assignments[key] = replace(assignments[key], wing_sides=tuple(sides))
            elif tag == "VERTEXMAP":
                _shape(tokens, "VERTEXMAP _ _")
                _put(vertexmap, tokens, tokens[2])
            else:
                raise ParseError(f"unknown record {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    face_specs = tuple(Face(fid, tuple(contours[fid]), unbounded, label, draw)
                       for fid, unbounded, label, draw in faces)
    arr = CurveArrangement(tuple(crossings), tuple(edges), tuple(curves),
                           face_specs)
    born_data = {"counts": counts, "assignments": assignments,
                 "vertexmap": vertexmap, "name": name}
    return arr, born_data


def assemble_born_map(poly, arr, born_data):
    return BornMap(polyhedron=poly, arrangement=arr,
                   assignments=dict(born_data["assignments"]),
                   fiber_counts=dict(born_data["counts"]),
                   vertex_crossings=dict(born_data["vertexmap"]),
                   name=born_data["name"])


# ---------------------------------------------------------------------------
# .plan
# ---------------------------------------------------------------------------

def emit_plan(plan, base_spoly="base.spoly", base_arr="base.arr"):
    out = [_header("PLAN", plan.name, "plan name"),
           f"BASE {_word(base_spoly, 'base file name')} "
           f"{_word(base_arr, 'base file name')}"]
    patch = plan.patch
    kind = "orientable" if patch.orientable else "nonorientable"
    out.append(f"PATCH {kind} genus {patch.genus} boundaries {patch.boundaries} "
               f"id {_word(patch.id, 'patch id')}")
    for circle in plan.circles:
        cid = _word(circle.id, "circle id")
        out.append(f"CIRCLE {cid} patchdir {_sign_str(circle.patch_dir)}")
        for i, seg in enumerate(circle.segments):
            line = f"SEG {cid} {i} sheet {_word(seg.sheet, 'sheet id')}"
            if seg.side_genus is not None:
                line += f" sidegenus {seg.side_genus}"
            if seg.side_circuits is not None:
                listed = ",".join(str(x) for x in seg.side_circuits) or "-"
                line += f" sidecircuits {listed}"
            out.append(line)
        for i, event in enumerate(circle.events):
            out.append(f"EVENT {cid} {i} arc {_word(event.arc, 'arc id')} "
                       f"pos {event.position} slotin {event.slot_in} "
                       f"slotout {event.slot_out}")
        image = circle.image
        if isinstance(image, ImageCircle):
            line = f"IMAGECIRCLE {cid} face {_word(image.face, 'face id')}"
            if image.inside:
                line += f" inside {_word(image.inside, 'circle id')}"
            line += f" orient {_sign_str(image.orient)}"
            if image.label:
                line += f" label {_word(image.label, 'image label')}"
            if image.draw:
                line += " draw " + " ".join(repr(x) for x in image.draw)
            out.append(line)
        else:
            # the parser splits a crossing at its first '@'
            crosses = " ".join(f"{_word(eid, 'edge id', '@')}@{pos}"
                               for eid, pos in image.crossings)
            out.append(f"IMAGEROUTE {cid} cross {crosses}")
            for i, (fid, holes) in enumerate(image.runs):
                line = f"IMAGERUN {cid} {i} face {_word(fid, 'face id')}"
                if holes is not None:
                    if holes not in ("left", "right"):
                        raise EmitError(f"cannot write holes side {holes!r}: "
                                        f"it is neither left nor right")
                    line += f" holes {holes}"
                out.append(line)
    for disk in plan.disks:
        out.append(f"DISK {_word(disk.circle, 'circle id')} faces "
                   + " ".join(_word(fid, "face id") for fid in disk.faces))
    if plan.witness:
        w = plan.witness
        nesting = " ".join(f"{_word(cid, 'circle id')}:{_parent(parent)}:"
                           f"{_sign_str(orient)}"
                           for cid, parent, orient in w.nesting)
        kind = "orientable" if w.surface_orientable else "nonorientable"
        out.append(f"WITNESS nesting {nesting} surface {kind} "
                   f"genus {w.surface_genus} boundaries {w.surface_boundaries}")
    return "\n".join(out) + "\n"


def _parent(parent):
    """A witness parent as written: ``-`` for none.  The parser splits a
    nesting at its last two colons, so the parent holds none."""
    if parent == "-":
        raise EmitError("cannot write witness parent '-': it would read "
                        "back as no parent")
    return _word(parent, "witness parent", ":") if parent else "-"


def _put_indexed(table, token, value):
    """Stores a numbered record such as ``SEG <circle> <index> ...``."""
    index = _int(token)
    if index in table:
        raise ParseError(f"duplicate index {index}")
    table[index] = value


def _in_order(table):
    return tuple(table[index] for index in sorted(table))


_CIRCLE_PARTS = ("SEG", "EVENT", "IMAGECIRCLE", "IMAGEROUTE", "IMAGERUN",
                 "DISK")
_SINGLE_RECORDS = ("PLAN", "BASE", "PATCH", "WITNESS")


def parse_plan(text):
    """Returns (SurgeryPlan, (base_spoly, base_arr)); the plan is built with
    base=None, and the caller supplies the base it loads from those files."""
    name = ""
    base_files = ("base.spoly", "base.arr")
    patch = None
    order = []
    patch_dirs = {}
    segments = {}
    events = {}
    images = {}          # circle id -> ImageCircle, or route crossings
    route_runs = {}      # circle id -> its IMAGERUN records, by index
    disks = {}
    witness = None
    seen = set()
    for lineno, tokens in _records(text):
        try:
            tag = tokens[0]
            cid = tokens[1] if len(tokens) > 1 else None
            if tag in _CIRCLE_PARTS and cid not in patch_dirs:
                raise ParseError(f"{tag} names no earlier CIRCLE")
            if tag in _SINGLE_RECORDS:
                _once(seen, tokens)
            if tag in ("IMAGECIRCLE", "IMAGEROUTE") and cid in images:
                raise ParseError(f"second image record for circle {cid}")
            if tag == "PLAN":
                name = _name(tokens)
            elif tag == "BASE":
                _shape(tokens, "BASE _ _")
                base_files = (tokens[1], tokens[2])
            elif tag == "PATCH":
                _shape(tokens, "PATCH _ genus _ boundaries _ id _")
                patch = SurfacePatch(
                    orientable=_orientable(tokens[1]), genus=_int(tokens[3]),
                    boundaries=_int(tokens[5]), id=tokens[7])
            elif tag == "CIRCLE":
                _shape(tokens, "CIRCLE _ patchdir _")
                if cid in patch_dirs:
                    raise ParseError(f"duplicate CIRCLE {cid}")
                order.append(cid)
                patch_dirs[cid] = _sign(tokens[3])
                segments[cid] = {}
                events[cid] = {}
            elif tag == "SEG":
                _shape(tokens, "SEG _ _ sheet _", more=True)
                options = _options(tokens[5:], tag,
                                   {"sidegenus": 1, "sidecircuits": 1})
                side_genus = None
                if "sidegenus" in options:
                    side_genus = _int(options["sidegenus"])
                side_circuits = None
                if "sidecircuits" in options:
                    listed = options["sidecircuits"]
                    side_circuits = () if listed == "-" else \
                        tuple(_int(x) for x in listed.split(","))
                _put_indexed(segments[cid], tokens[2],
                             PlanSegment(tokens[4], side_genus, side_circuits))
            elif tag == "EVENT":
                _shape(tokens, "EVENT _ _ arc _ pos _ slotin _ slotout _")
                _put_indexed(events[cid], tokens[2], PlanEvent(
                    arc=tokens[4], position=_fraction(tokens[6]),
                    slot_in=_int(tokens[8]), slot_out=_int(tokens[10])))
            elif tag == "IMAGECIRCLE":
                _shape(tokens, "IMAGECIRCLE _ face _", more=True)
                options = _options(tokens[4:], tag, {"inside": 1, "orient": 1,
                                                     "label": 1, "draw": 3})
                orient = _sign(options["orient"]) if "orient" in options else 1
                draw = _floats(options["draw"]) if "draw" in options else None
                images[cid] = ImageCircle(tokens[3], options.get("inside"),
                                          orient, options.get("label", ""), draw)
            elif tag == "IMAGEROUTE":
                _shape(tokens, "IMAGEROUTE _ cross", more=True)
                crossings = []
                for token in tokens[3:]:
                    eid, at, pos = token.partition("@")
                    if not at:
                        raise ParseError(
                            f"expected edge@position, got {token!r}")
                    crossings.append((eid, _fraction(pos)))
                images[cid] = tuple(crossings)
                route_runs[cid] = {}
            elif tag == "IMAGERUN":
                _shape(tokens, "IMAGERUN _ _ face _", more=True)
                holes = _options(tokens[5:], tag, {"holes": 1}).get("holes")
                if holes not in (None, "left", "right"):
                    raise ParseError(f"expected left or right, got {holes!r}")
                if cid not in route_runs:
                    raise ParseError(f"IMAGERUN before IMAGEROUTE {cid}")
                _put_indexed(route_runs[cid], tokens[2], (tokens[4], holes))
            elif tag == "DISK":
                _shape(tokens, "DISK _ faces", more=True)
                _put(disks, tokens, DiskRegion(cid, tuple(tokens[3:])))
            elif tag == "WITNESS":
                at = len(tokens) - 6
                if at < 2:
                    raise ParseError("bad WITNESS record")
                _shape(tokens[:2] + tokens[at:],
                       "WITNESS nesting surface _ genus _ boundaries _")
                nesting = []
                for token in tokens[2:at]:
                    circle, parent, orient = _fields(token, 3)
                    nesting.append((circle, None if parent == "-" else parent,
                                    _sign(orient)))
                witness = RelocationWitness(
                    nesting=tuple(nesting),
                    surface_orientable=_orientable(tokens[at + 1]),
                    surface_genus=_int(tokens[at + 3]),
                    surface_boundaries=_int(tokens[at + 5]))
            else:
                raise ParseError(f"unknown record {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if patch is None:
        raise ParseError("plan has no PATCH record")
    circles = []
    for cid in order:
        image = images.get(cid, ())
        if not isinstance(image, ImageCircle):
            image = ImageRoute(image, _in_order(route_runs.get(cid, {})))
        circles.append(PlanCircle(cid, _in_order(segments[cid]),
                                  _in_order(events[cid]), image, patch_dirs[cid]))
    plan = SurgeryPlan(base=None, circles=tuple(circles), patch=patch,
                       disks=tuple(disks.values()), witness=witness, name=name)
    return plan, base_files
