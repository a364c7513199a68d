"""Surface attachment along embedded circles, and disk normalization.

A surgery plan names disjoint circles embedded in the polyhedron, each as a
cyclic itinerary of sheet segments and transverse branch crossings, plus a
connected patch surface glued along all of them.  Attaching the patch turns
every circle into new triple branch (one arc per segment) and every branch
crossing into a new vertex whose free wings are the uncut old wing and the
patch, and adds the patch as one new sheet.  The output's arcs and vertices
are built first.  A sheet cut along segments then falls into pieces whose
boundary circuits are the output's continuation circuits through the runs
of the sheet's own circuits (core.circuits_through).  Fiber counts grow by
the winding number of the oriented image curves, which is the covering
multiplicity of the immersed patch.

Supported itineraries: circles without crossings bound disks inside a
single sheet; circles with crossings run through disk sheets (any number
of chords) or through orientable non-disk sheets (a single chord, with a
declared genus/circuit split when it separates the sheet).  Anything else
is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arrangement import ArrangementBuilder, winding_numbers
from .bornmap import BornMap, StrandAssignment, require_valid_born_map, validate_born_map
from .core import (TRIPLE, TRIVIAL, BranchArc, EndRoles, SheetSpec,
                   SimplePolyhedron, ValidationReport, VertexSpec, Violation,
                   WingTraversal, circuits_through, slot_count)
from .errors import (ContainmentViolated, NoEmptyRegion, PatchNotOrientable,
                     PlanError, UnsupportedItinerary, WitnessMismatch)


@dataclass(frozen=True)
class PlanSegment:
    sheet: str
    # declared split for a single chord separating a non-disk sheet: genus
    # and whole-circuit indices carried by the piece crossing it backward
    side_genus: int | None = None
    side_circuits: tuple | None = None


@dataclass(frozen=True)
class PlanEvent:
    arc: str
    position: Fraction
    slot_in: int
    slot_out: int


@dataclass(frozen=True)
class ImageCircle:
    face: str
    inside: str | None = None  # id of the plan circle this image nests in
    orient: int = 1            # +1: enclosed region on the curve's left
    label: str = ""
    draw: tuple | None = None


@dataclass(frozen=True)
class ImageRoute:
    crossings: tuple  # (edge_id, Fraction), parallel to the circle's events
    runs: tuple       # (face_id, holes_side_or_None), runs[i] after crossing i


@dataclass(frozen=True)
class PlanCircle:
    id: str
    segments: tuple
    events: tuple
    image: object
    patch_dir: int = 1


@dataclass(frozen=True)
class SurfacePatch:
    orientable: bool
    genus: int
    boundaries: int
    id: str = "patch"

    @property
    def euler(self):
        if self.orientable:
            return 2 - 2 * self.genus - self.boundaries
        return 2 - self.genus - self.boundaries


@dataclass(frozen=True)
class DiskRegion:
    circle: str
    faces: tuple


@dataclass(frozen=True)
class RelocationWitness:
    # (circle_id, parent_circle_or_None, orient) nesting inside the target disk
    nesting: tuple
    surface_orientable: bool
    surface_genus: int
    surface_boundaries: int


@dataclass(frozen=True)
class SurgeryPlan:
    base: BornMap
    circles: tuple
    patch: SurfacePatch
    disks: tuple = ()
    witness: RelocationWitness | None = None
    name: str = ""


def _is_disk(sheet):
    return sheet.orientable and sheet.genus == 0 and len(sheet.circuits) == 1


def _nesting(parent_of):
    """circle id -> (depth, outermost circle id), walking each chain of
    `parent_of` (circle id -> the id it nests in, or None) once.

    A parent that is not a key raises PlanError UnknownCircle, and a chain
    that comes back to itself raises NestingCycle."""
    found = {}
    for cid in parent_of:
        chain = []
        while cid is not None and cid not in found:
            if cid not in parent_of:
                raise PlanError("UnknownCircle", f"{chain[-1]} nests in "
                                f"unknown circle {cid}", circle=chain[-1])
            if cid in chain:
                raise PlanError("NestingCycle", "nesting cycle "
                                + " in ".join(chain[chain.index(cid):] + [cid]),
                                circle=cid)
            chain.append(cid)
            cid = parent_of[cid]
        depth, root = found[cid] if cid is not None else (-1, chain[-1])
        for member in reversed(chain):
            depth += 1
            found[member] = (depth, root)
    return found


def _image_nesting(circles):
    """_nesting over the images of the crossing-free circles."""
    return _nesting({c.id: c.image.inside for c in circles
                     if isinstance(c.image, ImageCircle)})


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

def check_attachment_hypotheses(plan):
    v = []
    base_report = validate_born_map(plan.base)
    if not base_report.ok:
        return ValidationReport.failed(
            [Violation("BaseInvalid", plan.name or "plan")]
            + list(base_report.violations))
    poly = plan.base.polyhedron
    arr = plan.base.arrangement

    if plan.patch.boundaries != len(plan.circles):
        v.append(Violation("BoundaryMismatch", plan.patch.id,
                           f"{plan.patch.boundaries} boundaries for "
                           f"{len(plan.circles)} circles"))
    if (plan.patch.genus < (0 if plan.patch.orientable else 1)
            or plan.patch.boundaries < 1):
        v.append(Violation("PatchShape", plan.patch.id))

    ids = [c.id for c in plan.circles]
    if len(set(ids)) != len(ids):
        v.append(Violation("CircleIds", plan.name or "plan"))

    arcs_used = {}
    chord_sheets = {}
    interior_sheets = {}
    for circle in plan.circles:
        if circle.patch_dir not in (1, -1):
            v.append(Violation("SignRange", circle.id,
                               f"patch_dir {circle.patch_dir}"))
        if isinstance(circle.image, ImageCircle) and circle.image.orient not in (1, -1):
            v.append(Violation("SignRange", circle.id,
                               f"orient {circle.image.orient}"))
        k = len(circle.events)
        if k == 0:
            if len(circle.segments) != 1 or not isinstance(circle.image, ImageCircle):
                v.append(Violation("ItineraryShape", circle.id))
                continue
            seg = circle.segments[0]
            if seg.sheet not in poly._sheet_by_id:
                v.append(Violation("UnknownSheet", circle.id, seg.sheet))
                continue
            interior_sheets.setdefault(seg.sheet, []).append(circle.id)
            host = circle.image.face
            if circle.image.inside is None and host not in arr._face_by_id:
                v.append(Violation("UnknownFace", circle.id, host))
            continue
        if len(circle.segments) != k or not isinstance(circle.image, ImageRoute):
            v.append(Violation("ItineraryShape", circle.id))
            continue
        if len(circle.image.crossings) != k or len(circle.image.runs) != k:
            v.append(Violation("ImageCorrespondence", circle.id,
                               "route shape does not match the events"))
            continue
        # a run's holes lie left or right of the route, or it has none
        v.extend(Violation("HoleSide", circle.id, f"run {i}: holes {holes!r}")
                 for i, (_, holes) in enumerate(circle.image.runs)
                 if holes not in (None, "left", "right"))
        # an unknown sheet would also mismatch its events' wings
        unknown = [seg.sheet for seg in circle.segments
                   if seg.sheet not in poly._sheet_by_id]
        if unknown:
            v.extend(Violation("UnknownSheet", circle.id, sheet_id)
                     for sheet_id in unknown)
            continue
        for i, event in enumerate(circle.events):
            if event.arc not in poly._arc_by_id:
                v.append(Violation("UnknownArc", circle.id, event.arc))
                continue
            arc = poly.arc(event.arc)
            if arc.kind != TRIPLE:
                v.append(Violation("NonTransverse", circle.id,
                                   f"{event.arc} is not a triple arc"))
                continue
            if event.slot_in == event.slot_out:
                v.append(Violation("NonTransverse", circle.id,
                                   f"{event.arc} touched, not crossed"))
                continue
            if not (0 < event.position < 1):
                v.append(Violation("EventPosition", circle.id, event.arc))
            wings = poly._wings[event.arc]
            if event.slot_in not in wings or event.slot_out not in wings:
                v.append(Violation("UnknownSlot", circle.id,
                                   f"event {i}: {event.arc} has slots "
                                   f"{sorted(wings)}"))
                continue
            sheet_in = wings[event.slot_in][0]
            sheet_out = wings[event.slot_out][0]
            if sheet_in != circle.segments[i].sheet:
                v.append(Violation("ItineraryMismatch", circle.id,
                                   f"event {i}: wing {event.slot_in} lies in "
                                   f"{sheet_in}"))
            if sheet_out != circle.segments[(i + 1) % k].sheet:
                v.append(Violation("ItineraryMismatch", circle.id,
                                   f"event {i}: wing {event.slot_out} lies in "
                                   f"{sheet_out}"))
            assignment = plan.base.assignments[poly._strand_of[event.arc]]
            side_in = assignment.wing_side(event.arc, event.slot_in)
            side_out = assignment.wing_side(event.arc, event.slot_out)
            if side_in == side_out:
                v.append(Violation("NonTransverse", circle.id,
                                   f"event {i}: both wings on side {side_in}"))
            arcs_used.setdefault(event.arc, set()).add(circle.id)
            crossing = circle.image.crossings[i]
            edge = arr._edge_by_id.get(crossing[0])
            if edge is None:
                v.append(Violation("ImageCorrespondence", circle.id,
                                   f"unknown edge {crossing[0]}"))
                continue
            if edge.curve != assignment.curve:
                v.append(Violation("ImageCorrespondence", circle.id,
                                   f"event {i}: edge {crossing[0]} is not on the "
                                   f"image of {event.arc}"))
                continue
            face_before = circle.image.runs[(i - 1) % k][0]
            face_after = circle.image.runs[i][0]
            want_before = edge.left if side_in == "L" else edge.right
            want_after = edge.left if side_out == "L" else edge.right
            if face_before != want_before or face_after != want_after:
                v.append(Violation("RouteFaceMismatch", circle.id,
                                   f"event {i}"))
        for face_id, _ in circle.image.runs:
            count = plan.base.fiber_counts.get(face_id)
            if count is not None and count < 1:
                v.append(Violation("RouteOverEmptyFace", circle.id, face_id))
        for i, seg in enumerate(circle.segments):
            chord_sheets.setdefault(seg.sheet, []).append((circle.id, i, seg))

    for arc_id, circle_ids in arcs_used.items():
        if len(circle_ids) > 1:
            v.append(Violation("UnsupportedItinerary", arc_id,
                               "two circles cross the same arc"))
    positions = {}
    for circle in plan.circles:
        for event in circle.events:
            key = (event.arc, event.position)
            if key in positions:
                v.append(Violation("EventPosition", circle.id,
                                   f"repeated position on {event.arc}"))
            positions[key] = circle.id

    for sheet_id, chords in chord_sheets.items():
        if sheet_id in interior_sheets:
            v.append(Violation("UnsupportedItinerary", sheet_id,
                               "chords and interior circles in one sheet"))
        sheet = poly.sheet(sheet_id)
        if _is_disk(sheet):
            continue
        if not sheet.orientable:
            v.append(Violation("UnsupportedItinerary", sheet_id,
                               "chord through a non-orientable sheet"))
        elif len(chords) > 1:
            v.append(Violation("UnsupportedItinerary", sheet_id,
                               "multiple chords through a non-disk sheet"))
        else:
            _, _, seg = chords[0]
            if seg.side_genus is not None:
                if not (0 <= seg.side_genus <= sheet.genus):
                    v.append(Violation("ItineraryShape", sheet_id, "side genus"))
                if seg.side_circuits is not None and any(
                        not (0 <= ci < len(sheet.circuits))
                        for ci in seg.side_circuits):
                    v.append(Violation("ItineraryShape", sheet_id, "side circuits"))

    try:
        _image_nesting(plan.circles)
    except PlanError as exc:
        v.append(Violation(exc.code, exc.context["circle"], str(exc)))

    if v:
        return ValidationReport.failed(v)
    return ValidationReport.passed()


def _require_attachable(plan):
    report = check_attachment_hypotheses(plan)
    if not report.ok:
        first = report.violations[0]
        raise PlanError(first.code, str(first))
    return plan


# ---------------------------------------------------------------------------
# arc splitting
# ---------------------------------------------------------------------------

def _vertex_name(circle_id, i):
    """The id of the new vertex at event `i` of the circle `circle_id`."""
    return f"v_{circle_id}_{i}"


def _image_curve(circle_id):
    """The id of the image curve of the circle `circle_id`."""
    return f"im_{circle_id}"


class _ArcSplits:
    """Sub-arc layout of every arc crossed by plan events.

    A crossed arc becomes sub-arcs (id, start vertex, end vertex) in arc
    direction, one new vertex per event; an end at the arc's old endpoint
    is None."""

    def __init__(self, poly, plan):
        self.sub_arcs = {}   # arc_id -> [(sub_arc_id, start, end)]
        self.arriving = {}   # new vertex id -> the sub-arc ending there
        self.leaving = {}    # new vertex id -> the sub-arc starting there
        crossed = {}
        for circle in plan.circles:
            for i, event in enumerate(circle.events):
                crossed.setdefault(event.arc, []).append(
                    (event.position, _vertex_name(circle.id, i)))
        for arc_id, marks in crossed.items():
            vids = [vid for _, vid in sorted(marks)]
            if poly.arc(arc_id).closed:
                spans = zip(vids, vids[1:] + vids[:1])
            else:
                spans = zip([None] + vids, vids + [None])
            subs = [(f"{arc_id}.{j}", start, end)
                    for j, (start, end) in enumerate(spans)]
            self.sub_arcs[arc_id] = subs
            self.arriving.update((end, sub) for sub, _, end in subs if end)
            self.leaving.update((start, sub) for sub, start, _ in subs if start)


# ---------------------------------------------------------------------------
# sheet cutting
# ---------------------------------------------------------------------------

def _runs(splits, circuit):
    """The runs of a base circuit on the output's arcs: a traversal of a
    crossed arc becomes traversals of its sub-arcs, in its direction."""
    for trav in circuit:
        subs = splits.sub_arcs.get(trav.arc)
        if subs is None:
            yield trav
        else:
            for sub, _, _ in subs[::trav.direction]:
                yield WingTraversal(sub, trav.slot, trav.direction)


def _cut_sheet(splits, arc_by_id, vertex_by_id, sheet, chords):
    """Cut one sheet along its chords, (new arc id, PlanSegment) pairs;
    returns its pieces, a list of (piece_id, circuits, genus) -- all
    orientable.

    The pieces' circuits are the output's continuation circuits through
    the runs of the sheet's circuits, read from the output's arc and vertex
    tables by circuits_through.  A circuit running along a chord's new arc
    bounds a piece; the others are the sheet's untouched circuits.  The
    piece crossing a chord backward (its minus side) runs the chord's new
    arc backward on slot 1, and the piece on its plus side runs it forward
    on slot 2; one piece holds both when the chord does not separate the
    sheet."""
    runs = [tuple(_runs(splits, circuit)) for circuit in sheet.circuits]
    base_index = {circuit[0]: ci for ci, circuit in enumerate(runs)}
    chord_arcs = {t_arc for t_arc, _ in chords}
    cycles, untouched = [], []   # untouched: (base circuit index, circuit)
    for circuit in circuits_through(arc_by_id, vertex_by_id,
                                    (run for circuit in runs for run in circuit)):
        if any(trav.arc in chord_arcs for trav in circuit):
            cycles.append(circuit)
        else:
            untouched.append((base_index[circuit[0]], circuit))

    if _is_disk(sheet):
        return [(f"{sheet.id}.p{k}", (cycle,), 0)
                for k, cycle in enumerate(cycles)]
    # exactly one chord (validated); one or two cycles
    (t_arc, seg), = chords
    if len(cycles) == 1:
        return [(f"{sheet.id}.p0", (cycles[0], *(c for _, c in untouched)),
                 sheet.genus)]
    side_genus = seg.side_genus or 0
    side_set = set(seg.side_circuits or ())
    minus, plus = (cycles if WingTraversal(t_arc, 1, -1) in cycles[0]
                   else cycles[::-1])
    return [(f"{sheet.id}.p0",
             (minus, *(c for ci, c in untouched if ci in side_set)), side_genus),
            (f"{sheet.id}.p1",
             (plus, *(c for ci, c in untouched if ci not in side_set)),
             sheet.genus - side_genus)]


# ---------------------------------------------------------------------------
# the main operation
# ---------------------------------------------------------------------------

def _insert_images(builder, circles):
    """Insert the image curve `im_<id>` of every circle: the crossing-free
    images first, those that nest in fewer other images first, then by id,
    and then the routes by id.  A crossing-free image goes inside the inner
    face of the image it nests in, or else in its face, which no route has
    split yet.  Returns circle id -> the new crossings of its route image."""
    nesting = _image_nesting(circles)
    inner_face_of = {}
    route_crossings = {}
    for circle in sorted(circles, key=lambda c: (
            c.id not in nesting, nesting.get(c.id, (0,))[0], c.id)):
        image = circle.image
        curve_id, source = _image_curve(circle.id), ("aux", f"image:{circle.id}")
        if isinstance(image, ImageCircle):
            host = inner_face_of[image.inside] if image.inside else image.face
            inner_face_of[circle.id] = builder.insert_circle(
                curve_id, host, image.orient, source,
                label=image.label, draw=image.draw)
        else:
            route_crossings[circle.id] = builder.insert_route(
                curve_id, image.crossings, image.runs, source)
    return route_crossings


def _claim_ids(ids, parts):
    """Add the ids of `parts` to the set `ids`; a repeat raises PlanError
    IdCollision naming it."""
    for part in parts:
        if part.id in ids:
            raise PlanError("IdCollision",
                            f"two parts of the output are named {part.id}")
        ids.add(part.id)


def attach_surface(plan):
    """Attach the plan's patch along its circles; returns the new BornMap."""
    _require_attachable(plan)
    base = plan.base
    poly = base.polyhedron
    splits = _ArcSplits(poly, plan)

    # --- per circle: its new names, chords, arcs, vertices, patch circuit ---
    minted = {}  # the name of a new arc or disk -> the circle minting it
    chords_by_sheet = {}
    interior_by_sheet = {}
    circle_arcs = []
    circle_vertices = []
    patch_circuits = []
    for circle in plan.circles:
        k = len(circle.events)
        names = ([f"t_{circle.id}.{i}" for i in range(k)] if k
                 else [f"t_{circle.id}", f"d_{circle.id}"])
        for name in names:
            if name in minted:
                raise PlanError("IdCollision", f"circles {minted[name].id} and "
                                f"{circle.id} both mint {name}")
            minted[name] = circle
        if not k:
            # the new arc and the disk it cuts from the circle's sheet
            interior_by_sheet.setdefault(circle.segments[0].sheet,
                                         []).append(names)
            circle_arcs.append(BranchArc(names[0], TRIPLE, None, TRIVIAL))
            patch_circuits.append((WingTraversal(names[0], 0, circle.patch_dir),))
            continue
        sign = 1 if circle.patch_dir > 0 else -1
        patch_circuits.append(tuple(WingTraversal(names[i], 0, sign)
                                    for i in range(k)[::sign]))
        vids = [_vertex_name(circle.id, i) for i in range(k)]
        for i, (event, seg) in enumerate(zip(circle.events, circle.segments)):
            chords_by_sheet.setdefault(seg.sheet, []).append((names[i], seg))
            circle_arcs.append(BranchArc(
                names[i], TRIPLE, ((vids[i - 1], 3), (vids[i], 1)), TRIVIAL))
            ends = ((splits.arriving[vids[i]], 1), (names[i], 1),
                    (splits.leaving[vids[i]], 0), (names[(i + 1) % k], 0))
            free_a = 3 - event.slot_in - event.slot_out
            # a chord's minus side holds slot 1 of its new arc (_cut_sheet);
            # it lies counterclockwise of the new arc's end when the sheet
            # runs the crossed wing backward, on either side of the vertex
            wings = poly._wings[event.arc]
            lq_in = 2 if wings[event.slot_in][1] > 0 else 1
            lq_out = 2 if wings[event.slot_out][1] > 0 else 1
            roles = (
                EndRoles(free=free_a, lq=event.slot_in, rq=event.slot_out),
                EndRoles(free=0, lq=lq_in, rq=3 - lq_in),
                EndRoles(free=free_a, lq=event.slot_out, rq=event.slot_in),
                EndRoles(free=0, lq=lq_out, rq=3 - lq_out),
            )
            circle_vertices.append(VertexSpec(vids[i], ends, roles))

    # --- build new arcs and vertices ---------------------------------------
    new_arcs = []
    for arc in poly.arcs:
        subs = splits.sub_arcs.get(arc.id)
        if subs is None:
            new_arcs.append(arc)
            continue
        for sub, start, end in subs:
            new_arcs.append(BranchArc(sub, arc.kind, (
                (start, 2) if start else arc.endpoints[0],
                (end, 0) if end else arc.endpoints[1]), TRIVIAL))
    new_arcs.extend(circle_arcs)

    new_vertices = []
    for vertex in poly.vertices:
        # remap ends naming split arcs onto the outermost sub-arcs
        fixed = []
        for aid, end_index in vertex.ends:
            subs = splits.sub_arcs.get(aid)
            if subs is None:
                fixed.append((aid, end_index))
            else:
                fixed.append((subs[0][0], 0) if end_index == 0
                             else (subs[-1][0], 1))
        new_vertices.append(replace(vertex, ends=tuple(fixed)))
    new_vertices.extend(circle_vertices)

    # a new name may meet a part the output keeps, or a patch id an arc or
    # vertex id; the sheets are cut on tables whose ids are unique
    ids = set()
    _claim_ids(ids, (*new_arcs, *new_vertices))

    # --- build new sheets on the output's tables ----------------------------
    arc_by_id = {arc.id: arc for arc in new_arcs}
    vertex_by_id = {vertex.id: vertex for vertex in new_vertices}
    new_sheets = []
    for sheet in poly.sheets:
        if sheet.id in chords_by_sheet:
            for pid, circuits, genus in _cut_sheet(
                    splits, arc_by_id, vertex_by_id, sheet,
                    chords_by_sheet[sheet.id]):
                new_sheets.append(SheetSpec(pid, True, genus, tuple(circuits)))
            continue
        circuits = [tuple(_runs(splits, circuit)) for circuit in sheet.circuits]
        for t_arc, disk in interior_by_sheet.get(sheet.id, ()):
            circuits.append((WingTraversal(t_arc, 2, -1),))
            new_sheets.append(SheetSpec(disk, True, 0,
                                        ((WingTraversal(t_arc, 1, 1),),)))
        new_sheets.append(replace(sheet, circuits=tuple(circuits)))

    # patch sheet
    patch_id = plan.patch.id
    existing = {s.id for s in new_sheets}
    while patch_id in existing:
        patch_id += "_"
    new_sheets.append(SheetSpec(patch_id, plan.patch.orientable,
                                plan.patch.genus, tuple(patch_circuits)))
    _claim_ids(ids, new_sheets)

    new_poly = SimplePolyhedron(tuple(new_sheets), tuple(new_arcs),
                                tuple(new_vertices),
                                name=f"{poly.name}+{plan.name or 'patch'}")

    # --- arrangement, counts, assignments -----------------------------------
    builder = ArrangementBuilder(base.arrangement)
    new_vertex_crossings = dict(base.vertex_crossings)
    for cid, xids in _insert_images(builder, plan.circles).items():
        for i, xid in enumerate(xids):
            new_vertex_crossings[_vertex_name(cid, i)] = xid

    # rebuild assignments; each image curve becomes the branch of its circle
    sub_parent = {sub: arc_id for arc_id, subs in splits.sub_arcs.items()
                  for sub, _, _ in subs}

    new_assignments = {}
    for key, strand in new_poly._strands.items():
        circle = minted.get(key)
        if circle is not None:
            # slot 1 of a crossing-free circle's arc is its cut disk, on
            # the side its image encloses
            if not circle.events and circle.image.orient > 0:
                slot_sides = ("L", "L", "R")
            else:
                slot_sides = ("L", "R", "L")
            new_assignments[key] = StrandAssignment(
                curve=_image_curve(circle.id), direction=1, heavy="L",
                wing_sides=tuple(((arc_id, slot), side) for arc_id in strand
                                 for slot, side in enumerate(slot_sides)))
            continue
        old = base.assignments[poly._strand_of[sub_parent.get(key, key)]]
        new_assignments[key] = replace(old, wing_sides=tuple(
            ((arc_id, slot), old.wing_side(sub_parent.get(arc_id, arc_id), slot))
            for arc_id in strand
            for slot in range(slot_count(new_poly.arc(arc_id).kind))))
    for key, assignment in new_assignments.items():
        builder.retag_curve(assignment.curve, ("branch", key))

    new_arr = builder.freeze()
    # a face's count grows from that of the base face it lies in by the
    # winding of the image curves around it
    coverage = winding_numbers(new_arr, {_image_curve(c.id): 1 for c in plan.circles})
    if any(w < 0 for w in coverage.values()):
        raise PlanError("PatchCoverageNegative",
                        "image orientations cover a region negatively")
    new_counts = {f.id: base.fiber_counts[builder.origin(f.id)] + coverage[f.id]
                  for f in new_arr.faces}

    result = BornMap(polyhedron=new_poly, arrangement=new_arr,
                     assignments=new_assignments, fiber_counts=new_counts,
                     vertex_crossings=new_vertex_crossings,
                     name=f"{base.name or 'map'}+{plan.name or 'patch'}")
    report = validate_born_map(result)
    if not report.ok:
        raise PlanError("CrossingRule",
                        "surgery output failed validation: "
                        + "; ".join(str(x) for x in report.violations[:6]))
    return result


# ---------------------------------------------------------------------------
# disk normalization and the orientable-patch pipeline
# ---------------------------------------------------------------------------

def _zero_faces(born):
    return [f.id for f in born.arrangement.faces
            if born.fiber_counts.get(f.id, 0) == 0]


def normalized_plan(plan):
    """The plan with every circle image relocated into one count-0 face."""
    zero = _zero_faces(plan.base)
    if not zero:
        raise NoEmptyRegion("every face carries at least one fiber component")
    require_valid_born_map(plan.base)

    if any(circle.events or not isinstance(circle.image, ImageCircle)
           for circle in plan.circles):
        raise UnsupportedItinerary("relocation requires crossing-free circles")

    if plan.witness is None:
        raise WitnessMismatch("no relocation witness supplied")
    witness_ids = [cid for cid, _, _ in plan.witness.nesting]
    if sorted(witness_ids) != sorted(c.id for c in plan.circles):
        raise WitnessMismatch("witness circles do not match the plan")
    if plan.witness.surface_boundaries != plan.patch.boundaries or \
            plan.witness.surface_orientable != plan.patch.orientable or \
            plan.witness.surface_genus != plan.patch.genus:
        raise WitnessMismatch("witness surface does not match the patch")
    for cid, _, orient in plan.witness.nesting:
        if orient not in (1, -1):
            raise PlanError("SignRange", str(Violation(
                "SignRange", cid, f"witness orient {orient}")))
    parent_of = {cid: parent for cid, parent, _ in plan.witness.nesting}
    try:
        _nesting(parent_of)
    except PlanError as exc:
        raise WitnessMismatch(f"witness nesting: {exc}") from exc

    # already relocated: every top-level image sits in an empty face
    face_ids = {f.id for f in plan.base.arrangement.faces}
    nesting = _image_nesting(plan.circles)
    top = [c for c in plan.circles if nesting[c.id][1] == c.id]
    for circle in top:
        if circle.image.face not in face_ids:
            raise PlanError("UnknownFace", f"image of {circle.id} lies in "
                            f"unknown face {circle.image.face}")
    if all(plan.base.fiber_counts[c.image.face] == 0 for c in top):
        return plan

    if sorted(d.circle for d in plan.disks) != sorted(c.id for c in plan.circles):
        raise ContainmentViolated("need one disk region per circle")
    regions = {d.circle: set(d.faces) for d in plan.disks}
    for circle in plan.circles:
        faces = regions[circle.id]
        if not faces <= face_ids:
            raise ContainmentViolated(f"unknown faces for {circle.id}")
        # nested images cannot sit inside disjoint disks
        if circle.image.inside is not None:
            raise ContainmentViolated(
                f"image of {circle.id} nests inside another circle")
        if circle.image.face not in faces:
            raise ContainmentViolated(
                f"image of {circle.id} not inside its disk region")

    target = sorted(zero)[0]
    orient_of = {cid: orient for cid, _, orient in plan.witness.nesting}
    new_circles = tuple(
        replace(circle, image=ImageCircle(
            face=target, inside=parent_of[circle.id],
            orient=orient_of[circle.id],
            label=circle.image.label, draw=None))
        for circle in plan.circles)
    return replace(plan, circles=new_circles)


def normalize_into_disk(plan):
    """Realize the relocated circle family as auxiliary curves; the
    polyhedron and all persisting fiber counts are unchanged."""
    moved = normalized_plan(plan)
    base = plan.base
    curve_ids = {c.id for c in base.arrangement.curves}
    if all(_image_curve(c.id) in curve_ids for c in moved.circles):
        return base
    # a base holding only some images fails with DuplicateImage
    builder = ArrangementBuilder(base.arrangement)
    _insert_images(builder, moved.circles)
    arr = builder.freeze()
    counts = {f.id: base.fiber_counts[builder.origin(f.id)] for f in arr.faces}
    return BornMap(polyhedron=base.polyhedron, arrangement=arr,
                   assignments=base.assignments, fiber_counts=counts,
                   vertex_crossings=base.vertex_crossings,
                   name=f"{base.name or 'map'}~relocated")


def relocate_and_attach(plan):
    """Normalize into a disk, then attach an orientable patch."""
    if not plan.patch.orientable:
        raise PatchNotOrientable("the relocation pipeline requires an "
                                 "orientable patch")
    moved = normalized_plan(plan)
    return attach_surface(moved)
