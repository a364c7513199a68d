"""Line-oriented text formats: .spoly, .arr (with born-map data), .plan.

All three are whitespace-delimited with one record per line and ``#``
comments.  Each record's layout is stated once, as a template that both
writes and reads the record.  The kind of each field pairs a reader with
a writer that raises EmitError for any value the reader would not give
back equal, so emit/parse round-trips are exact on the in-memory values.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from .arrangement import ArrEdge, Crossing, Curve, CurveArrangement, Face
from .bornmap import BornMap, StrandAssignment
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


# ---------------------------------------------------------------------------
# field kinds: (reader, writer) pairs.  A reader takes a token.  A writer
# takes a value and its field's name, and raises EmitError for a value that
# the reader would not give back.
# ---------------------------------------------------------------------------

def _kind(read, what, text=None, reason=None):
    """The kind of the tokens read(token) reads; text(value) writes one."""
    def get(token):
        try:
            return read(token)
        except (ValueError, ZeroDivisionError, KeyError):
            raise ParseError(f"expected {what}, got {token!r}") from None

    def put(value, name):
        try:
            token = text(value)
            if read(token) == value:
                return token
        except (ParseError, ValueError, ZeroDivisionError, LookupError,
                TypeError):          # TypeError: an unhashable value
            pass
        raise EmitError(f"cannot write {name} {value!r}: {reason}")
    return get, put


def _among(values, expected, reason):
    """The kind of a token that `values` maps to what it reads as."""
    return _kind(values.__getitem__, expected, {
        value: token for token, value in values.items()}.__getitem__, reason)


_UNREADABLE = re.compile(r"[\s#]")


def _word(value, name):
    """A name or id, written as it is when it is a string that is not empty
    and holds no whitespace and no ``#``, which starts a comment."""
    if type(value) is str and value and not _UNREADABLE.search(value):
        return value
    reason = ("it is not a string" if not isinstance(value, str) else
              "it is empty" if not value else
              "it holds '#', which starts a comment" if "#" in value else
              "it holds whitespace")
    raise EmitError(f"cannot write {name} {value!r}: {reason}")


def _tuple(value, count, name):
    if type(value) is not tuple or len(value) != count:
        raise EmitError(f"cannot write {name} {value!r}: it is not a tuple "
                        f"of {count} values")
    return value


def _kinds(names):
    return [(*_FIELDS.get(name, _WORD), name) for name in names]


def _joined(notation, make=None, first=False, miss=None):
    """The kind of a token of fields, such as ``<arc id>:<slot>:<direction>``,
    read as make(*fields) or as their tuple.  It splits at its last
    separators, so that only its first field may hold one, or with `first`
    at its first, so that only its last may; `miss` names it if it must."""
    names = re.findall(r"<([^>]*)>", notation)
    sep, kinds = notation[notation.index(">") + 1], _kinds(names)

    def read(token):
        fields = token.split(sep, 1) if first else \
            token.rsplit(sep, len(names) - 1)
        if first and not miss and len(fields) == 1:
            fields.append("")          # no separator: an empty last field
        if len(fields) != len(names):
            raise ParseError(f"expected {miss}, got {token!r}" if miss else
                             f"expected {len(names)} fields separated by "
                             f"{sep!r}, got {token!r}")
        fields = [get(field) for (get, _, _), field in zip(kinds, fields)]
        return make(*fields) if make else tuple(fields)

    def write(value, name):
        if make and type(value) is not make:
            raise EmitError(f"cannot write {name} {value!r}: it is not a "
                            f"{make.__name__}")
        fields = _values(value) if make else _tuple(value, len(names), name)
        tokens = [put(field, name) for (_, put, name), field
                  in zip(kinds, fields)]
        for at, token in enumerate(tokens):
            if sep in token and at != (len(names) - 1 if first else 0):
                raise EmitError(f"cannot write {names[at]} {fields[at]!r}: "
                                f"it holds {sep!r}, which separates the "
                                f"fields of its token")
        return sep.join(tokens)
    return read, write


_WORD = (str, _word)
_INT = _kind(int, "an integer", str, "it is not an integer")
_SIGNS = {"+": 1, "-": -1}
_SIGN = _among(_SIGNS, "+ or -", "it is neither +1 nor -1")
_SIDE = _among({"L": "L", "R": "R"}, "L or R", "it is neither L nor R")
_FLOAT = _kind(float, "a number", repr,
               "it does not read back as the same number")

# the kind of each template field that is no word, by its name there and
# in EmitError
_FIELDS = {
    **dict.fromkeys(("genus", "side genus", "boundaries", "slot", "end",
                     "port", "fiber count"), _INT),
    **dict.fromkeys(("direction", "contour direction", "patch direction",
                     "orient"), _SIGN),
    "heavy side": _SIDE, "wing side": _SIDE,
    "orientability": _among({"orientable": True, "nonorientable": False},
                            "orientable or nonorientable",
                            "it is neither True nor False"),
    "holes side": _among({"left": "left", "right": "right"},
                         "left or right", "it is neither left nor right"),
    "coordinate": _FLOAT, "radius": _FLOAT,
    "position": _kind(Fraction, "a fraction", str, "it is not a fraction"),
    "witness parent": _kind(
        lambda token: None if token == "-" else token, "", lambda parent:
        "-" if parent is None else _word(parent, "witness parent"),
        "it would read back as no parent"),
    "side circuits": _kind(
        lambda token: () if token == "-" else tuple(
            _INT[0](x) for x in token.split(",")), "",
        lambda circuits: ",".join(map(str, circuits)) or "-",
        "it is not a tuple of integers"),
    "index": (str, _INT[1]),       # _put_indexed reads it, after the rest
}
_TRAVERSAL = _joined("<arc id>:<slot>:<direction>", WingTraversal)
_SIGN_TOKENS = {1: "+", -1: "-"}


def _write_traversal(t, name):
    try:    # fast path: an int slot and a direction of +1 or -1
        return f"{_word(t.arc, 'arc id')}:{t.slot:d}:{_SIGN_TOKENS[t.direction]}"
    except (AttributeError, ValueError, TypeError, KeyError):
        return _TRAVERSAL[1](t, name)    # the checked writer decides


_FIELDS.update({
    "traversal": (_TRAVERSAL[0], _write_traversal),
    "arc end": _joined("<vertex id>:<port>"),
    "vertex end": _joined("<arc id>:<end>"),
    "roles": _joined("<slot>:<slot>:<slot>", EndRoles),
    "ray": _joined("<edge id>:<end>"),
    "edge end": _joined("<crossing id>:<port>"),
    "curve source": _joined("<curve source kind>:<curve source label>",
                            first=True),
    "contour side": _joined("<edge id>:<contour direction>"),
    "wing": _joined("<arc id>:<slot>:<wing side>"),
    "route crossing": _joined("<edge id>@<position>", first=True,
                              miss="edge@position"),
    "nesting": _joined("<circle id>:<witness parent>:<orient>"),
})

# what a reader gives for a field that a record leaves out, when not None
_ABSENT = {"polyhedron name": "", "map name": "", "plan name": "",
           "face label": "", "image label": "", "orient": 1}


# ---------------------------------------------------------------------------
# record layouts
# ---------------------------------------------------------------------------

_UNIT = re.compile(
    r"\[[^\]]*\]|<[^>]*>(?: \.\.\.)?|[^\s<\[]+(?: <[^>]*>(?! \.\.\.))*")
_WORDS = re.compile(r"<[^>]*>|[^\s\[\]]+")


def _repeat(tag, name, least, keys):
    """(reader, writer) of ``<f> ...`` (least 1) or ``[<f> ...]``, read as
    a tuple; an f that would read back as one of the `keys` is refused."""
    (get, put, _), = _kinds([name])

    def write(items, name, owner):
        if len(items) < least:
            raise EmitError(f"cannot write {tag} with no {name}")
        line = " " + " ".join([put(item, name) for item in items])
        for item in items if keys else ():
            if item in keys:
                raise EmitError(f"cannot write {name} {item!r} of "
                                f"{tag.lower()} {owner!r}: it would read back "
                                f"as the {item} keyword")
        return line
    return (lambda tokens: tuple([get(token) for token in tokens])), write


def _either(tag, first, second, names, omit=True):
    """(reader, writer) of a field of two shapes: the tokens `first`, read
    as _ABSENT has the field (or False for no fields), or the tokens
    `second` and fields `names`, read as their tuple, as its value for one
    field and as True for none.  With `omit`, that is written as `first`."""
    kinds = _kinds(names)
    absent = _ABSENT.get(names[0]) if names else False

    def read(tokens):
        if tokens == first:
            return absent
        if len(tokens) != len(second) + len(kinds) or \
                tokens[:len(second)] != second:
            raise ParseError(f"bad {tag} record")
        got = [get(token) for (get, _, _), token
               in zip(kinds, tokens[len(second):])]
        return got[0] if len(got) == 1 else tuple(got) if got else True

    def write(value, name, owner=None):
        if omit and value == absent:
            return " ".join(["", *first])
        if not kinds and value != True:  # noqa: E712, 1 reads back equal
            raise EmitError(f"cannot write {name} {value!r}: it is neither "
                            f"True nor False")
        fields = (value,) if len(kinds) == 1 else \
            _tuple(value, len(kinds), name) if kinds else ()
        return " ".join(["", *second, *[put(field, name) for (_, put, name),
                                        field in zip(kinds, fields)]])
    return read, write


class _Layout:
    """A record's layout, built once from a template such as ``"COUNT <face
    id> <fiber count>"`` in the README's notation, its fields named as in
    _FIELDS.  `read(tokens)` returns, and `emit(*values)` takes, one value
    per field in order; `shape(tokens)` checks only length and keywords.
    The three are compiled into the code a record would have by hand."""

    def __init__(self, template):
        words, span, self.options, self.arity = [], None, [], {}
        for unit in _UNIT.findall(template):
            names = [word.strip("<>") for word in _WORDS.findall(unit)]
            if "..." in unit:
                least = int(unit[0] != "[")
                span = (len(words), names[0], least,
                        *_repeat(words[0], names[0], least, self.arity))
            elif "|" in unit or unit[:2] == "[<":     # a|b <f> ..., or [<f>]
                first, second = ([key] for key in names.pop(0).split("|")) \
                    if "|" in unit else ([], [])
                span = (len(words), names[-1], len(first),
                        *_either(words[0], first, second, names))
            elif unit[0] == "[" or self.options:
                self.arity[names[0]] = len(names) - 1
                self.options.append((names[0], *_either(
                    words[0], [], names[:1], names[1:], unit[0] == "[")))
            else:
                words += _WORDS.findall(unit)
        at, name, least, get, put = span or (len(words), None, 0, None, None)
        self.tag = words[0]
        scope = {"ParseError": ParseError, "arity": self.arity,
                 "options": self._options}
        guard = [f"len(tokens) {'<' if span or self.options else '!='} "
                 f"{len(words) + least}"]
        reads, values, line = [], [], [self.tag]

        def bind(get, put, name, place=None, more=""):   # the value v<k>
            k = len(values)
            scope[f"g{k}"], scope[f"w{k}"], scope[f"n{k}"] = get, put, name
            values.append(f"v{k}")
            line.append(f"{{w{k}(v{k}, n{k}{more})}}")
            if place:
                reads.append(f"g{k}({place})")

        def fixed(part, first):
            for i, word in enumerate(part, first):
                line.append(" ")
                if word[0] == "<":
                    bind(*_kinds([word[1:-1]])[0], f"tokens[{i}]")
                else:
                    guard.append(f"tokens[{i}] != {word!r}")
                    line.append(word)
        fixed(words[1:at], 1)        # the record loops dispatch on the tag
        stop = f"len(tokens) - {len(words) - at}" if span else str(at)
        if span and self.options:    # the span then ends at the first key
            stop = (f"next((i for i in range({at}, len(tokens)) "
                    f"if tokens[i] in arity), len(tokens))")
        if span:                     # it and the keys write their own spaces
            bind(get, put, name, f"tokens[{at}:stop]", ", v0")
        fixed(words[at:], at - len(words))
        for key, _, put in self.options:
            bind(str, put, key)
        if self.options:
            reads.append("*options(tokens[stop:])")
        check = (f"    if {' or '.join(guard)}:\n"
                 f"        raise ParseError(f'bad {{tokens[0]}} record')\n")
        exec(f"def shape(tokens):\n{check}"
             f"def read(tokens):\n{check}    stop = {stop}\n"
             f"    return [{', '.join(reads)}]\n"
             f"def emit({', '.join(values)}):\n"
             f"    return f{''.join(line)!r}\n", scope)
        self.shape, self.read, self.emit = (scope["shape"], scope["read"],
                                            scope["emit"])

    def _options(self, tokens):
        found, at = {}, 0
        while at < len(tokens):
            key = tokens[at]
            end = at + 1 + self.arity.get(key, len(tokens))
            if end > len(tokens):
                raise ParseError(f"bad {self.tag} field {key!r}")
            found[key], at = tokens[at:end], end
        return [read(found.get(key, [])) for key, read, _ in self.options]


def _once(seen, tokens):
    """Marks a record that a file holds at most once, such as ``POLY``; a
    second one is a ParseError, not an overwrite."""
    if tokens[0] in seen:
        raise ParseError(f"repeated {tokens[0]} record")
    seen.add(tokens[0])


def _put(table, tokens, value):
    """Store the value of record `tokens` under its key, tokens[1]; a
    second record for the same key is a ParseError, not an overwrite."""
    if tokens[1] in table:
        raise ParseError(f"repeated {tokens[0]} {tokens[1]}")
    table[tokens[1]] = value


def _values(record):
    """The fields of a record value in order, as its template has them."""
    return [getattr(record, name) for name in record.__dataclass_fields__]


def _put_indexed(table, token, value):
    """Stores a numbered record such as ``SEG <circle> <index> ...``."""
    index = _INT[0](token)
    if index in table:
        raise ParseError(f"duplicate index {index}")
    table[index] = value


# ---------------------------------------------------------------------------
# .spoly
# ---------------------------------------------------------------------------

_POLY = _Layout("POLY [<polyhedron name>]")
_SHEET = _Layout("SHEET <sheet id> <orientability> <genus>")
_CIRCUIT = _Layout("CIRCUIT <sheet id> <traversal> ...")
_ARC = _Layout("ARC <arc id> <arc kind> closed|ends <arc end> <arc end> "
               "monodromy <monodromy>")
_VERTEX = _Layout("VERTEX <vertex id> ends <vertex end> <vertex end> "
                  "<vertex end> <vertex end> roles <roles> <roles> <roles> "
                  "<roles>")


def emit_spoly(poly):
    out = [_POLY.emit(poly.name)]
    for sheet in poly.sheets:
        out.append(_SHEET.emit(sheet.id, sheet.orientable, sheet.genus))
        out += [_CIRCUIT.emit(sheet.id, circuit) for circuit in sheet.circuits]
    out += [_ARC.emit(arc.id, arc.kind, arc.endpoints, arc.monodromy)
            for arc in poly.arcs]
    out += [_VERTEX.emit(vertex.id, *vertex.ends, *vertex.roles)
            for vertex in poly.vertices]
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
                _CIRCUIT.shape(tokens)
                sid = tokens[1]
                if sid not in circuits:
                    raise ParseError(f"CIRCUIT before SHEET {sid}")
                travs = []
                for token in tokens[2:]:
                    try:
                        arc, slot, d = token.rsplit(":", 2)
                        travs.append(WingTraversal(arc, int(slot), _SIGNS[d]))
                    except (ValueError, KeyError):
                        # the checked reader raises the ParseError
                        travs.append(_TRAVERSAL[0](token))
                circuits[sid].append(tuple(travs))
            elif tag == "SHEET":
                sheets.append(_SHEET.read(tokens))
                circuits.setdefault(tokens[1], [])
            elif tag == "ARC":
                arcs.append(BranchArc(*_ARC.read(tokens)))
            elif tag == "VERTEX":
                vid, *ends = _VERTEX.read(tokens)
                vertices.append(VertexSpec(vid, tuple(ends[:4]),
                                           tuple(ends[4:])))
            elif tag == "POLY":
                _once(seen, tokens)
                name = _POLY.read(tokens)[0]
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

_NAME = _Layout("NAME [<map name>]")
_CROSSING = _Layout("CROSSING <crossing id> <ray> <ray> <ray> <ray>")
_EDGE = _Layout("EDGE <edge id> curve <curve id> closed|ends <edge end> "
                "<edge end> left <face id> right <face id>")
_CURVE = _Layout("CURVE <curve id> source <curve source> edges [<edge id> ...] "
                 "[draw <coordinate> <coordinate> <radius>]")
_FACE = _Layout("FACE <face id> [unbounded] [label <face label>] "
                "[draw <coordinate> <coordinate>]")
_CONTOUR = _Layout("CONTOUR <face id> [<contour side> ...]")
_COUNT = _Layout("COUNT <face id> <fiber count>")
_ASSIGN = _Layout("ASSIGN <strand key> curve <curve id> dir <direction> "
                  "heavy <heavy side>")
_WINGSIDE = _Layout("WINGSIDE <strand key> [<wing> ...]")
_VERTEXMAP = _Layout("VERTEXMAP <vertex id> <crossing id>")


def emit_arr(born):
    arr = born.arrangement
    out = [_NAME.emit(born.name)] if born.name != "" else []
    out += [_CROSSING.emit(crossing.id, *crossing.order)
            for crossing in arr.crossings]
    out += [_EDGE.emit(*_values(edge)) for edge in arr.edges]
    out += [_CURVE.emit(*_values(curve)) for curve in arr.curves]
    for face in arr.faces:
        out.append(_FACE.emit(face.id, face.unbounded, face.label, face.draw))
        out += [_CONTOUR.emit(face.id, contour) for contour in face.contours]
    out += [_COUNT.emit(*item) for item in sorted(born.fiber_counts.items())]
    for key, a in sorted(born.assignments.items()):
        out += [_ASSIGN.emit(key, a.curve, a.direction, a.heavy),
                _WINGSIDE.emit(key, [(aid, slot, side) for (aid, slot), side
                                     in a.wing_sides])]
    out += [_VERTEXMAP.emit(*item)
            for item in sorted(born.vertex_crossings.items())]
    return "\n".join(out) + "\n"


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
    born_data = {"counts": {}, "assignments": {}, "vertexmap": {}, "name": ""}
    assignments = born_data["assignments"]
    seen = set()
    for lineno, tokens in _records(text):
        try:
            tag = tokens[0]
            if tag == "NAME":
                _once(seen, tokens)
                born_data["name"] = _NAME.read(tokens)[0]
            elif tag == "CROSSING":
                xid, *rays = _CROSSING.read(tokens)
                crossings.append(Crossing(xid, tuple(rays)))
            elif tag == "EDGE":
                edges.append(ArrEdge(*_EDGE.read(tokens)))
            elif tag == "CURVE":
                curves.append(Curve(*_CURVE.read(tokens)))
            elif tag == "FACE":
                faces.append(_FACE.read(tokens))
                contours.setdefault(tokens[1], [])
            elif tag == "CONTOUR":
                _CONTOUR.shape(tokens)
                if tokens[1] not in contours:
                    raise ParseError(f"CONTOUR before FACE {tokens[1]}")
                fid, sides = _CONTOUR.read(tokens)
                contours[fid].append(sides)
            elif tag == "COUNT":
                _put(born_data["counts"], tokens, _COUNT.read(tokens)[1])
            elif tag == "ASSIGN":
                _put(assignments, tokens,
                     StrandAssignment(*_ASSIGN.read(tokens)[1:], ()))
            elif tag == "WINGSIDE":
                _WINGSIDE.shape(tokens)
                key = tokens[1]
                if key not in assignments:
                    raise ParseError(f"WINGSIDE before ASSIGN {key}")
                if (tag, key) in seen:
                    raise ParseError(f"repeated WINGSIDE {key}")
                seen.add((tag, key))
                sides = tuple(((aid, slot), side) for aid, slot, side
                              in _WINGSIDE.read(tokens)[1])
                assignments[key] = replace(assignments[key], wing_sides=sides)
            elif tag == "VERTEXMAP":
                _put(born_data["vertexmap"], tokens,
                     _VERTEXMAP.read(tokens)[1])
            else:
                raise ParseError(f"unknown record {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    face_specs = tuple(Face(fid, tuple(contours[fid]), unbounded, label, draw)
                       for fid, unbounded, label, draw in faces)
    arr = CurveArrangement(tuple(crossings), tuple(edges), tuple(curves),
                           face_specs)
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

_PLAN = _Layout("PLAN [<plan name>]")
_BASE = _Layout("BASE <base file name> <base file name>")
_PATCH = _Layout("PATCH <orientability> genus <genus> boundaries <boundaries> "
                 "id <patch id>")
_CIRCLE = _Layout("CIRCLE <circle id> patchdir <patch direction>")
_SEG = _Layout("SEG <circle id> <index> sheet <sheet id> "
               "[sidegenus <side genus>] [sidecircuits <side circuits>]")
_EVENT = _Layout("EVENT <circle id> <index> arc <arc id> pos <position> "
                 "slotin <slot> slotout <slot>")
_IMAGECIRCLE = _Layout("IMAGECIRCLE <circle id> face <face id> "
                       "[inside <circle id>] orient <orient> "
                       "[label <image label>] "
                       "[draw <coordinate> <coordinate> <radius>]")
_IMAGEROUTE = _Layout("IMAGEROUTE <circle id> cross [<route crossing> ...]")
_IMAGERUN = _Layout("IMAGERUN <circle id> <index> face <face id> "
                    "[holes <holes side>]")
_DISK = _Layout("DISK <circle id> faces [<face id> ...]")
_WITNESS = _Layout("WITNESS nesting [<nesting> ...] surface <orientability> "
                   "genus <genus> boundaries <boundaries>")


def emit_plan(plan, base_spoly="base.spoly", base_arr="base.arr"):
    out = [_PLAN.emit(plan.name), _BASE.emit(base_spoly, base_arr),
           _PATCH.emit(*_values(plan.patch))]
    for circle in plan.circles:
        cid = circle.id
        out.append(_CIRCLE.emit(cid, circle.patch_dir))
        out += [_SEG.emit(cid, i, *_values(seg))
                for i, seg in enumerate(circle.segments)]
        out += [_EVENT.emit(cid, i, *_values(event))
                for i, event in enumerate(circle.events)]
        if isinstance(circle.image, ImageCircle):
            out.append(_IMAGECIRCLE.emit(cid, *_values(circle.image)))
        else:
            out.append(_IMAGEROUTE.emit(cid, circle.image.crossings))
            out += [_IMAGERUN.emit(cid, i, fid, holes)
                    for i, (fid, holes) in enumerate(circle.image.runs)]
    out += [_DISK.emit(*_values(disk)) for disk in plan.disks]
    if plan.witness:
        out.append(_WITNESS.emit(*_values(plan.witness)))
    return "\n".join(out) + "\n"


def _in_order(table):
    return tuple(table[index] for index in sorted(table))


_CIRCLE_PARTS = ("SEG", "EVENT", "IMAGECIRCLE", "IMAGEROUTE", "IMAGERUN",
                 "DISK")
_SINGLES = {"PLAN": _PLAN, "BASE": _BASE, "PATCH": _PATCH,
            "WITNESS": _WITNESS}


def parse_plan(text):
    """Returns (SurgeryPlan, (base_spoly, base_arr)); the plan is built with
    base=None, and the caller supplies the base it loads from those files."""
    single = {}          # tag -> the values of a record held at most once
    patch_dirs = {}      # circle id -> patch direction, in file order
    segments = {}
    events = {}
    images = {}          # circle id -> ImageCircle, or route crossings
    route_runs = {}      # circle id -> its IMAGERUN records, by index
    disks = {}
    seen = set()
    for lineno, tokens in _records(text):
        try:
            tag = tokens[0]
            cid = tokens[1] if len(tokens) > 1 else None
            if tag in _CIRCLE_PARTS and cid not in patch_dirs:
                raise ParseError(f"{tag} names no earlier CIRCLE")
            if tag in ("IMAGECIRCLE", "IMAGEROUTE") and cid in images:
                raise ParseError(f"second image record for circle {cid}")
            if tag in _SINGLES:
                _once(seen, tokens)
                single[tag] = _SINGLES[tag].read(tokens)
            elif tag == "CIRCLE":
                _CIRCLE.shape(tokens)
                if cid in patch_dirs:
                    raise ParseError(f"duplicate CIRCLE {cid}")
                patch_dirs[cid] = _CIRCLE.read(tokens)[1]
                segments[cid] = {}
                events[cid] = {}
            elif tag == "SEG":
                _, index, *fields = _SEG.read(tokens)
                _put_indexed(segments[cid], index, PlanSegment(*fields))
            elif tag == "EVENT":
                _, index, *fields = _EVENT.read(tokens)
                _put_indexed(events[cid], index, PlanEvent(*fields))
            elif tag == "IMAGECIRCLE":
                images[cid] = ImageCircle(*_IMAGECIRCLE.read(tokens)[1:])
            elif tag == "IMAGEROUTE":
                images[cid] = _IMAGEROUTE.read(tokens)[1]
                route_runs[cid] = {}
            elif tag == "IMAGERUN":
                _, index, *run = _IMAGERUN.read(tokens)
                if cid not in route_runs:
                    raise ParseError(f"IMAGERUN before IMAGEROUTE {cid}")
                _put_indexed(route_runs[cid], index, tuple(run))
            elif tag == "DISK":
                _put(disks, tokens, DiskRegion(*_DISK.read(tokens)))
            else:
                raise ParseError(f"unknown record {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if "PATCH" not in single:
        raise ParseError("plan has no PATCH record")
    circles = []
    for cid in patch_dirs:
        image = images.get(cid, ())
        if not isinstance(image, ImageCircle):
            image = ImageRoute(image, _in_order(route_runs.get(cid, {})))
        circles.append(PlanCircle(cid, _in_order(segments[cid]),
                                  _in_order(events[cid]), image, patch_dirs[cid]))
    witness = single.get("WITNESS")
    plan = SurgeryPlan(base=None, circles=tuple(circles),
                       patch=SurfacePatch(*single["PATCH"]),
                       disks=tuple(disks.values()),
                       witness=witness and RelocationWitness(*witness),
                       name=single.get("PLAN", [""])[0])
    return plan, tuple(single.get("BASE", ("base.spoly", "base.arr")))
