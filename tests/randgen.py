"""Randomized instance generators shared by the property suites.

Round specs are generated from the outside in (outermost count 0), keeping
triple circles away from empty regions so the produced born maps validate.
Surgery plans mix interior circles on arbitrary sheets with crossing
circles through a triple arc; crossing segments through non-disk sheets
declare the trivial split (a disk cut off, no circuits carried over).
"""

from dataclasses import replace
from fractions import Fraction

from spineforge.core import BOUNDARY, TRIPLE
from spineforge.gallery import RoundCircle, RoundSpec, round_reeb
from spineforge.surgery import (ImageCircle, ImageRoute, PlanCircle,
                                PlanEvent, PlanSegment, SurfacePatch,
                                SurgeryPlan, attach_surface)


def random_round_spec(rng, max_depth=6, name="rnd"):
    """A valid concentric spec: counts walk from 0 outward-in by +-1."""
    depth = rng.randint(1, max_depth)
    counts = [0]
    kinds = []
    for level in range(depth):
        outside = counts[-1]
        if outside == 0:
            inside, kind = 1, BOUNDARY
        else:
            step = rng.choice([1, 1, -1])
            if outside == 1 and step == -1:
                step = 1
            inside = outside + step
            # triple circles need material on both sides
            kind = rng.choice([TRIPLE, BOUNDARY]) if min(inside, outside) >= 1 \
                else BOUNDARY
        counts.append(inside)
        kinds.append(kind)
    # counts[k] is the count inside circle k counted from the outside;
    # reorder from the center out
    circles = []
    stack_size = counts[-1]
    for level in reversed(range(depth)):
        inside, outside = counts[level + 1], counts[level]
        kind = kinds[level]
        if kind == TRIPLE:
            pos = rng.randrange(max(stack_size, inside) - 1) \
                if max(stack_size, inside) > 1 else 0
        else:
            pos = rng.randrange(max(stack_size, inside)) \
                if max(stack_size, inside) > 0 else 0
        circles.append(RoundCircle(kind, inside, outside, pos=pos))
        stack_size = outside
    return RoundSpec(circles=tuple(circles), name=name)


def random_round_map(rng, name="rnd"):
    return round_reeb(random_round_spec(rng, name=name))


def tower_map(n):
    """round_reeb of n concentric circles with counts n..0 from the center,
    boundary outermost and triple otherwise: 2n-1 sheets."""
    circles = tuple(RoundCircle(BOUNDARY if k == 0 else TRIPLE, k + 1, k, pos=0)
                    for k in reversed(range(n)))
    return round_reeb(RoundSpec(circles, name=f"tower{n}"))


def random_interior_plan(rng, born, n_circles=None, name="rnd_plan"):
    """Interior circles in distinct random sheets, images side by side or
    nested in faces the sheets lie over."""
    poly = born.polyhedron
    sheets = [s.id for s in poly.sheets]
    n = n_circles or rng.randint(1, min(3, len(sheets)))
    chosen = rng.sample(sheets, n)
    faces = [f.id for f in born.arrangement.faces
             if born.fiber_counts[f.id] >= 1]
    circles = []
    winding = {}  # circle id -> patch winding just inside it
    for i, sheet in enumerate(chosen):
        face = rng.choice(faces)
        inside = None
        parent_winding = 0
        if i > 0 and rng.random() < 0.3:
            parent = circles[rng.randrange(len(circles))]
            inside = parent.id
            face = parent.image.face
            parent_winding = winding[parent.id]
        # the immersed patch cannot cover any region negatively
        orient = rng.choice([1, -1]) if parent_winding >= 1 else 1
        cid = f"z{i}"
        winding[cid] = parent_winding + orient
        circles.append(PlanCircle(
            id=cid,
            segments=(PlanSegment(sheet=sheet),),
            events=(),
            image=ImageCircle(face=face, inside=inside, orient=orient),
            patch_dir=rng.choice([1, -1])))
    orientable = rng.random() < 0.7
    genus = rng.randint(0 if orientable else 1, 2)
    patch = SurfacePatch(orientable=orientable, genus=genus, boundaries=n,
                         id="rpatch")
    return SurgeryPlan(base=born, circles=tuple(circles), patch=patch,
                       name=name)


def crossing_candidates(born):
    """Triple arcs usable for a two-point crossing circle, with the chosen
    heavy and light wing data."""
    from spineforge.core import strand_circles
    poly = born.polyhedron
    strand_of = {}
    for circle in strand_circles(poly):
        for arc_id in circle:
            strand_of[arc_id] = circle[0]
    out = []
    for arc in poly.arcs:
        if arc.kind != TRIPLE or not arc.closed:
            continue
        assignment = born.assignments[strand_of[arc.id]]
        wings = poly._wings[arc.id]
        heavy = assignment.heavy
        heavy_slots = [s for s in range(3)
                       if assignment.wing_side(arc.id, s) == heavy]
        light_slots = [s for s in range(3)
                       if assignment.wing_side(arc.id, s) != heavy]
        if len(heavy_slots) != 2 or len(light_slots) != 1:
            continue
        light = light_slots[0]
        for h in heavy_slots:
            sheet_h = wings[h][0]
            sheet_l = wings[light][0]
            if sheet_h == sheet_l:
                continue
            out.append((arc.id, h, light, sheet_h, sheet_l, assignment))
    return out


def random_crossing_plan(rng, born, name="rnd_cross"):
    """One circle crossing a triple arc twice, alternating between a
    heavy-side sheet and the light-side sheet.  Returns None when the map
    has no usable arc."""
    poly = born.polyhedron
    candidates = crossing_candidates(born)
    rng.shuffle(candidates)
    for arc_id, h, light, sheet_h, sheet_l, assignment in candidates:
        def seg_for(sheet_id):
            sheet = poly.sheet(sheet_id)
            if sheet.orientable and sheet.genus == 0 and len(sheet.circuits) == 1:
                return PlanSegment(sheet=sheet_id)
            if not sheet.orientable:
                return None
            return PlanSegment(sheet=sheet_id, side_genus=0, side_circuits=())
        seg_h, seg_l = seg_for(sheet_h), seg_for(sheet_l)
        if seg_h is None or seg_l is None:
            continue
        edge_id = born.arrangement.curve(assignment.curve).edges[0]
        edge = born.arrangement.edge(edge_id)
        if not edge.closed:
            continue
        side_of = {s: assignment.wing_side(arc_id, s) for s in (h, light)}
        face_of_side = {"L": edge.left, "R": edge.right}
        face_h = face_of_side[side_of[h]]
        face_l = face_of_side[side_of[light]]
        if born.fiber_counts[face_h] < 1 or born.fiber_counts[face_l] < 1:
            continue
        p1, p2 = Fraction(1, 4), Fraction(3, 4)
        holes_l = "right" if len(born.arrangement.face(face_l).contours) > 1 else None
        holes_h = "right" if len(born.arrangement.face(face_h).contours) > 1 else None
        circle = PlanCircle(
            id="w0",
            segments=(seg_h, seg_l),
            events=(PlanEvent(arc=arc_id, position=p1, slot_in=h, slot_out=light),
                    PlanEvent(arc=arc_id, position=p2, slot_in=light, slot_out=h)),
            image=ImageRoute(
                crossings=((edge_id, p1), (edge_id, p2)),
                runs=((face_l, holes_l), (face_h, holes_h))),
            patch_dir=rng.choice([1, -1]))
        patch = SurfacePatch(orientable=True, genus=rng.randint(0, 1),
                             boundaries=1, id="rpatch")
        return SurgeryPlan(base=born, circles=(circle,), patch=patch, name=name)
    return None


def random_surgered_maps(rng, count, name="rsurg"):
    """Outputs of `count` random surgery plans on random round maps; every
    second plan crosses a triple arc when the map has a usable one."""
    out = []
    for trial in range(count):
        born = random_round_map(rng, name=f"{name}{trial}")
        plan = (random_crossing_plan(rng, born) if trial % 2 else None) \
            or random_interior_plan(rng, born)
        out.append(attach_surface(plan))
    return out


def _suffixed(plan, suffix):
    """`plan` with `suffix` appended to its patch id, its circle ids and the
    circle ids its crossing-free images nest in."""
    circles = []
    for circle in plan.circles:
        image = circle.image
        if isinstance(image, ImageCircle) and image.inside is not None:
            image = replace(image, inside=image.inside + suffix)
        circles.append(replace(circle, id=circle.id + suffix, image=image))
    patch = replace(plan.patch, id=plan.patch.id + suffix)
    return replace(plan, circles=tuple(circles), patch=patch)


def random_iterated_map(rng, base, steps):
    """Surgery applied `steps` times in turn, each step on the last one's
    output, starting from `base`; yields (plan, output) for each step.

    Step k draws a crossing plan with probability 1/2, and an interior plan
    otherwise or when the map has no usable arc.  It suffixes the plan's
    circle ids and patch id with `_k`, so no step reuses the name of a part
    an earlier step made."""
    born = base
    for step in range(steps):
        plan = (random_crossing_plan(rng, born) if rng.random() < 0.5
                else None) or random_interior_plan(rng, born)
        plan = _suffixed(plan, f"_{step}")
        born = attach_surface(plan)
        yield plan, born
