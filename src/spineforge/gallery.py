"""Fixture builders: concentric round maps and the nested-spheres example.

`round_reeb` spins a stack of fiber lines over concentric circles into a
simple polyhedron with its born map: every circle either merges two lines
into one (triple, counts drop outward), splits one line into two (triple,
counts rise), ends a line (boundary, drop) or starts one (boundary, rise).
The stack position of each event is part of the spec; sheets come out as
disks (lines reaching the center) and annuli.

`build_base_example` is the two-nested-spheres map over circles of radii
1, 2, 8, 9, 10, 11 with fiber counts 4, 5, 4, 3, 2, 1, 0 from the center
outward.  `build_surgered_example` attaches an annulus along two circles
cut out of the inner band and the outer floor; the result contains a
closed non-orientable subsurface (a Klein bottle) of characteristic 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arrangement import ArrEdge, Curve, CurveArrangement, Face
from .bornmap import BornMap, StrandAssignment
from .core import (BOUNDARY, TRIPLE, TRIVIAL, BranchArc, SheetSpec,
                   SimplePolyhedron, WingTraversal)
from .errors import PlanError
from .surgery import (ImageCircle, PlanCircle, PlanSegment, SurfacePatch,
                      SurgeryPlan, attach_surface)


@dataclass(frozen=True)
class RoundCircle:
    kind: str          # BOUNDARY or TRIPLE
    inside: int        # fiber count just inside this circle
    outside: int       # fiber count just outside
    pos: int = 0       # stack index of the merge/split/start/end event
    radius: float | None = None  # decorative only


@dataclass(frozen=True)
class RoundSpec:
    circles: tuple  # RoundCircle, ordered from the center outward
    name: str = "round"


def _check_round_spec(spec):
    circles = spec.circles
    for i, c in enumerate(circles):
        if abs(c.outside - c.inside) != 1:
            raise PlanError("CountRule", f"circle {i}: counts {c.inside}|{c.outside}")
        if c.inside < 0 or c.outside < 0:
            raise PlanError("CountRule", f"circle {i}: negative count")
        if i + 1 < len(circles) and circles[i + 1].inside != c.outside:
            raise PlanError("CountRule", f"circles {i},{i + 1}: count chain broken")
    if circles and circles[-1].outside != 0:
        raise PlanError("CountRule", "outermost outside count must be 0")


def round_reeb(spec):
    """Build the BornMap of a concentric round map from its count data."""
    _check_round_spec(spec)
    circles = spec.circles
    n = len(circles)

    arc_ids = []
    for i, c in enumerate(circles):
        radius = c.radius if c.radius is not None else i + 1
        arc_ids.append(f"c{radius:g}" if isinstance(radius, (int, float)) else f"c{i}")

    fresh = iter(range(10_000))
    lines = {}   # line id -> {"birth": (region, arc or None, slot), "death": ...}
    stack = []
    for _ in range(circles[0].inside if circles else 0):
        lid = f"s{next(fresh)}"
        lines[lid] = {"birth": None, "death": None}
        stack.append(lid)

    for i, c in enumerate(circles):
        arc = arc_ids[i]
        delta = c.outside - c.inside
        pos = c.pos
        if c.kind == TRIPLE and delta == -1:
            if not (0 <= pos < len(stack) - 0 and pos + 1 < len(stack) + 0) or pos + 1 >= len(stack):
                raise PlanError("CountRule", f"circle {i}: merge position {pos}")
            upper, lower = stack[pos], stack[pos + 1]
            newline = f"s{next(fresh)}"
            lines[newline] = {"birth": (arc, 2), "death": None}
            lines[upper]["death"] = (arc, 0)
            lines[lower]["death"] = (arc, 1)
            stack[pos:pos + 2] = [newline]
        elif c.kind == TRIPLE and delta == 1:
            if not (0 <= pos < len(stack)):
                raise PlanError("CountRule", f"circle {i}: split position {pos}")
            parent = stack[pos]
            lines[parent]["death"] = (arc, 2)
            first, second = f"s{next(fresh)}", f"s{next(fresh)}"
            lines[first] = {"birth": (arc, 0), "death": None}
            lines[second] = {"birth": (arc, 1), "death": None}
            stack[pos:pos + 1] = [first, second]
        elif c.kind == BOUNDARY and delta == -1:
            if not (0 <= pos < len(stack)):
                raise PlanError("CountRule", f"circle {i}: end position {pos}")
            lines[stack[pos]]["death"] = (arc, 0)
            del stack[pos]
        elif c.kind == BOUNDARY and delta == 1:
            if not (0 <= pos <= len(stack)):
                raise PlanError("CountRule", f"circle {i}: start position {pos}")
            newline = f"s{next(fresh)}"
            lines[newline] = {"birth": (arc, 0), "death": None}
            stack.insert(pos, newline)
        else:
            raise PlanError("CountRule", f"circle {i}: kind {c.kind} with jump {delta}")
    assert not stack

    sheets = []
    for lid in sorted(lines, key=lambda x: int(x[1:])):
        info = lines[lid]
        death_arc, death_slot = info["death"]
        death = WingTraversal(death_arc, death_slot, 1)
        if info["birth"] is None:
            circuits = ((death,),)
        else:
            birth_arc, birth_slot = info["birth"]
            circuits = ((WingTraversal(birth_arc, birth_slot, -1),), (death,))
        sheets.append(SheetSpec(lid, orientable=True, genus=0, circuits=circuits))

    arcs = tuple(BranchArc(arc_ids[i], circles[i].kind, None, TRIVIAL)
                 for i in range(n))
    poly = SimplePolyhedron(tuple(sheets), arcs, (), name=spec.name)

    # concentric arrangement: every circle one closed edge, oriented with
    # its inside on the left
    edges = []
    curves = []
    faces = []
    counts = {}
    radii = [c.radius if c.radius is not None else i + 1
             for i, c in enumerate(circles)]
    region_count = [circles[0].inside] + [c.outside for c in circles] if circles else [0]
    for i in range(n):
        eid = f"e_{arc_ids[i]}"
        cid = f"im_{arc_ids[i]}"
        inner_face = f"r{i}"
        outer_face = f"r{i + 1}" if i + 1 < n else "r_out"
        edges.append(ArrEdge(eid, cid, None, inner_face, outer_face))
        curves.append(Curve(cid, ("branch", arc_ids[i]), (eid,),
                            draw=(0.0, 0.0, float(radii[i]))))
    for i in range(n + 1):
        fid = f"r{i}" if i < n else "r_out"
        contours = []
        if i < n:
            contours.append(((f"e_{arc_ids[i]}", 1),))
        if i > 0:
            contours.append(((f"e_{arc_ids[i - 1]}", -1),))
        if i == 0:
            label = f"r<{radii[0]:g}" if n else "plane"
            anchor = (0.0, 0.0)
        elif i < n:
            label = f"{radii[i - 1]:g}<r<{radii[i]:g}"
            anchor = ((radii[i - 1] + radii[i]) / 2.0, 0.0)
        else:
            label = f"r>{radii[-1]:g}" if n else "plane"
            anchor = ((radii[-1] + 1.0) if n else 0.0, 0.0)
        faces.append(Face(fid, tuple(contours), unbounded=(i == n),
                          label=label, draw=anchor))
        counts[fid] = region_count[i]
    if not circles:
        faces = [Face("r_out", (), unbounded=True, label="plane", draw=(0.0, 0.0))]
        counts = {"r_out": 0}

    arrangement = CurveArrangement((), tuple(edges), tuple(curves), tuple(faces))

    assignments = {}
    for i, c in enumerate(circles):
        heavy = "L" if c.outside < c.inside else "R"
        sides = []
        if c.kind == TRIPLE:
            inner_side, outer_side = "L", "R"
            two_inside = c.outside < c.inside
            sides.append(((arc_ids[i], 0), inner_side if two_inside else outer_side))
            sides.append(((arc_ids[i], 1), inner_side if two_inside else outer_side))
            sides.append(((arc_ids[i], 2), outer_side if two_inside else inner_side))
        else:
            sides.append(((arc_ids[i], 0), "L" if c.outside < c.inside else "R"))
        assignments[arc_ids[i]] = StrandAssignment(
            curve=f"im_{arc_ids[i]}", direction=1, heavy=heavy,
            wing_sides=tuple(sides))

    return BornMap(polyhedron=poly, arrangement=arrangement,
                   assignments=assignments, fiber_counts=counts,
                   vertex_crossings={}, name=spec.name)


# ---------------------------------------------------------------------------
# the nested-spheres example
# ---------------------------------------------------------------------------

BASE_SPEC = RoundSpec(
    circles=(
        RoundCircle(TRIPLE, 4, 5, pos=1, radius=1),
        RoundCircle(TRIPLE, 5, 4, pos=0, radius=2),
        RoundCircle(TRIPLE, 4, 3, pos=1, radius=8),
        RoundCircle(BOUNDARY, 3, 2, pos=1, radius=9),
        RoundCircle(TRIPLE, 2, 1, pos=0, radius=10),
        RoundCircle(BOUNDARY, 1, 0, pos=0, radius=11),
    ),
    name="nested_spheres",
)

# line ids produced by the simulation, renamed to their geometric roles:
# two nested sphere levels joined by a tube, with two flat rims
_BASE_RENAME = {
    "s0": "o_cap",    # outer level, polar cap
    "s1": "i_cap",    # inner level, polar cap
    "s2": "i_floor",  # inner level, lower disk
    "s3": "o_floor",  # outer level, lower disk
    "s4": "tube",     # annulus joining the two caps' circles
    "s5": "i_band",   # inner level, middle band
    "s6": "o_band",   # outer level, middle band
    "s7": "rim_in",   # flat annulus between radii 8 and 9
    "s8": "rim_out",  # flat annulus between radii 10 and 11
}


def _rename_sheets(born, rename):
    poly = born.polyhedron
    sheets = tuple(replace(s, id=rename.get(s.id, s.id)) for s in poly.sheets)
    return replace(born, polyhedron=SimplePolyhedron(
        sheets, poly.arcs, poly.vertices, name=poly.name))


def _flip_sheet(born, sheet_id):
    """Reverse every traversal direction of one sheet (a gauge change)."""
    poly = born.polyhedron
    sheets = []
    for s in poly.sheets:
        if s.id != sheet_id:
            sheets.append(s)
            continue
        circuits = tuple(tuple(t.reversed() for t in reversed(c)) for c in s.circuits)
        sheets.append(replace(s, circuits=circuits))
    return replace(born, polyhedron=SimplePolyhedron(
        tuple(sheets), poly.arcs, poly.vertices, name=poly.name))


def build_base_example():
    """The nested-spheres map: counts 4,5,4,3,2,1,0 from the center out."""
    born = round_reeb(BASE_SPEC)
    born = _rename_sheets(born, _BASE_RENAME)
    # orient the two lower disks to match the nested-spheres embedding
    # (outward normals on both sphere levels)
    born = _flip_sheet(born, "i_floor")
    born = _flip_sheet(born, "o_floor")
    return born


def klein_plan(base=None):
    """Annulus attachment along one circle in the inner band and one in the
    outer floor, images nested around an off-center point.

    Both attachment directions align with the cut disk pieces; with the
    base orientations this makes the band-tube-patch cycle orientation
    reversing, so the surgered polyhedron carries a Klein bottle.
    """
    base = base or build_base_example()
    circles = (
        PlanCircle(
            id="outer_cut",
            segments=(PlanSegment(sheet="i_band"),),
            events=(),
            image=ImageCircle(face="r2", inside=None, orient=1,
                              label="ring<2", draw=(-5.0, 0.0, 2.0)),
            patch_dir=1,
        ),
        PlanCircle(
            id="inner_cut",
            segments=(PlanSegment(sheet="o_floor"),),
            events=(),
            image=ImageCircle(face="r2", inside="outer_cut", orient=-1,
                              label="ring<1", draw=(-5.0, 0.0, 1.0)),
            patch_dir=1,
        ),
    )
    patch = SurfacePatch(orientable=True, genus=0, boundaries=2, id="patch")
    return SurgeryPlan(base=base, circles=circles, patch=patch,
                       name="klein_attachment")


def build_surgered_example():
    """The nested-spheres map after the annulus attachment."""
    base = build_base_example()
    return attach_surface(klein_plan(base))


def relocation_plan(base=None):
    """The same two circles with side-by-side images, ready for the
    normalize-then-attach pipeline: disjoint disk regions around the images
    and a witness placing them nested inside one empty region."""
    from .surgery import DiskRegion, RelocationWitness
    base = base or build_base_example()
    circles = (
        PlanCircle(
            id="outer_cut",
            segments=(PlanSegment(sheet="i_band"),),
            events=(),
            image=ImageCircle(face="r2", inside=None, orient=1),
            patch_dir=1,
        ),
        PlanCircle(
            id="inner_cut",
            segments=(PlanSegment(sheet="o_floor"),),
            events=(),
            image=ImageCircle(face="r1", inside=None, orient=1),
            patch_dir=1,
        ),
    )
    patch = SurfacePatch(orientable=True, genus=0, boundaries=2, id="patch")
    disks = (DiskRegion(circle="outer_cut", faces=("r2",)),
             DiskRegion(circle="inner_cut", faces=("r1",)))
    witness = RelocationWitness(
        nesting=(("outer_cut", None, 1), ("inner_cut", "outer_cut", -1)),
        surface_orientable=True, surface_genus=0, surface_boundaries=2)
    return SurgeryPlan(base=base, circles=circles, patch=patch,
                       disks=disks, witness=witness, name="relocated_attachment")


def build_theta():
    """Three disks sharing one closed triple circle."""
    arc = BranchArc("c0", TRIPLE, None, TRIVIAL)
    sheets = tuple(
        SheetSpec(f"w{i}", orientable=True, genus=0,
                  circuits=((WingTraversal("c0", i, 1),),))
        for i in range(3))
    return SimplePolyhedron(sheets, (arc,), (), name="theta")


def build_closed_sheet(genus, orientable=True, name=None):
    """A single closed surface as a branchless polyhedron."""
    sheet = SheetSpec("s", orientable=orientable, genus=genus, circuits=())
    return SimplePolyhedron((sheet,), (), (),
                            name=name or f"closed_g{genus}")


def build_sphere_fixture():
    """One disk sheet over one boundary circle: counts 1 inside, 0 outside."""
    spec = RoundSpec(circles=(RoundCircle(BOUNDARY, 1, 0, pos=0, radius=1),),
                     name="sphere_fixture")
    return round_reeb(spec)
