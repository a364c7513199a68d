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

import itertools
from dataclasses import dataclass, replace

from .arrangement import ArrEdge, Curve, CurveArrangement, Face
from .bornmap import BornMap, StrandAssignment
from .core import (BOUNDARY, TRIPLE, TRIVIAL, BranchArc, SheetSpec,
                   SimplePolyhedron, WingTraversal)
from .errors import PlanError
from .surgery import (DiskRegion, ImageCircle, PlanCircle, PlanSegment,
                      RelocationWitness, SurfacePatch, SurgeryPlan,
                      attach_surface)


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
    radii = [c.radius if c.radius is not None else i + 1
             for i, c in enumerate(circles)]
    arc_ids = [f"c{r:g}" if isinstance(r, (int, float)) else f"c{i}"
               for i, r in enumerate(radii)]

    # fiber lines are numbered in creation order; each is born (arc, slot)
    # on a circle, or at the center when it has no birth, and dies on one
    fresh = itertools.count()
    births, deaths = {}, {}
    stack = [next(fresh) for _ in range(circles[0].inside if circles else 0)]
    for i, c in enumerate(circles):
        arc = arc_ids[i]
        delta = c.outside - c.inside
        pos = c.pos
        if c.kind == TRIPLE and delta == -1:
            if not 0 <= pos < len(stack) - 1:
                raise PlanError("CountRule", f"circle {i}: merge position {pos}")
            newline = next(fresh)
            births[newline] = (arc, 2)
            deaths[stack[pos]] = (arc, 0)
            deaths[stack[pos + 1]] = (arc, 1)
            stack[pos:pos + 2] = [newline]
        elif c.kind == TRIPLE and delta == 1:
            if not 0 <= pos < len(stack):
                raise PlanError("CountRule", f"circle {i}: split position {pos}")
            deaths[stack[pos]] = (arc, 2)
            first, second = next(fresh), next(fresh)
            births[first] = (arc, 0)
            births[second] = (arc, 1)
            stack[pos:pos + 1] = [first, second]
        elif c.kind == BOUNDARY and delta == -1:
            if not 0 <= pos < len(stack):
                raise PlanError("CountRule", f"circle {i}: end position {pos}")
            deaths[stack.pop(pos)] = (arc, 0)
        elif c.kind == BOUNDARY and delta == 1:
            if not 0 <= pos <= len(stack):
                raise PlanError("CountRule", f"circle {i}: start position {pos}")
            newline = next(fresh)
            births[newline] = (arc, 0)
            stack.insert(pos, newline)
        else:
            raise PlanError("CountRule", f"circle {i}: kind {c.kind} with jump {delta}")
    assert not stack

    sheets = []
    for line in range(len(deaths)):  # every line has died
        death = (WingTraversal(*deaths[line], 1),)
        if line in births:
            circuits = ((WingTraversal(*births[line], -1),), death)
        else:
            circuits = (death,)
        sheets.append(SheetSpec(f"s{line}", orientable=True, genus=0,
                                circuits=circuits))

    arcs = tuple(BranchArc(arc_id, c.kind, None, TRIVIAL)
                 for arc_id, c in zip(arc_ids, circles))
    poly = SimplePolyhedron(tuple(sheets), arcs, (), name=spec.name)

    # concentric arrangement: circle i is one closed edge with face r{i}
    # on its left (inside); its wings on the side with more fiber lines
    # are the heavy ones, two of them on a triple circle
    face_ids = [f"r{i}" for i in range(n)] + ["r_out"]
    edges, curves, faces, assignments = [], [], [], {}
    for i, fid in enumerate(face_ids):
        contours = []
        if i < n:
            arc_id, c = arc_ids[i], circles[i]
            eid, cid = f"e_{arc_id}", f"im_{arc_id}"
            edges.append(ArrEdge(eid, cid, None, fid, face_ids[i + 1]))
            curves.append(Curve(cid, ("branch", arc_id), (eid,),
                                draw=(0.0, 0.0, float(radii[i]))))
            contours.append(((eid, 1),))
            heavy, light = ("L", "R") if c.outside < c.inside else ("R", "L")
            sides = (heavy, heavy, light) if c.kind == TRIPLE else (heavy,)
            assignments[arc_id] = StrandAssignment(
                curve=cid, direction=1, heavy=heavy,
                wing_sides=tuple(((arc_id, slot), side)
                                 for slot, side in enumerate(sides)))
        if i > 0:
            contours.append(((f"e_{arc_ids[i - 1]}", -1),))
        if i == 0:
            label = f"r<{radii[0]:g}" if n else "plane"
            anchor = (0.0, 0.0)
        elif i < n:
            label = f"{radii[i - 1]:g}<r<{radii[i]:g}"
            anchor = ((radii[i - 1] + radii[i]) / 2.0, 0.0)
        else:
            label = f"r>{radii[-1]:g}"
            anchor = (radii[-1] + 1.0, 0.0)
        faces.append(Face(fid, tuple(contours), unbounded=(i == n),
                          label=label, draw=anchor))
    arrangement = CurveArrangement((), tuple(edges), tuple(curves), tuple(faces))
    counts = dict(zip(face_ids, [circles[0].inside if circles else 0]
                      + [c.outside for c in circles]))

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
