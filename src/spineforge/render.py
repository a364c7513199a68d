"""SVG emission: boundary curves black, triple curves gray, one count
label per face.

Curves and faces may carry decorative drawing hints (circle center/radius,
label anchor).  Without hints, placement falls back to nesting depth:
curve k from the outside sits on a circle of radius proportional to its
depth, faces label the rings between.
"""

from __future__ import annotations

from .arrangement import face_depths
from .bornmap import require_valid_born_map
from .core import BOUNDARY


def render_svg(born, size=420):
    """One SVG document for a valid born map."""
    require_valid_born_map(born)
    arr = born.arrangement
    poly = born.polyhedron

    # a strand's key is its smallest arc id, and all its arcs share a kind
    kind_of_curve = {assignment.curve: poly.arc(key).kind
                     for key, assignment in born.assignments.items()}

    depth = face_depths(arr)
    max_depth = max(depth.values(), default=1) or 1

    radius_hint = {}
    for curve in arr.curves:
        if curve.draw:
            radius_hint[curve.id] = curve.draw
    max_radius = max((abs(d[0]) + abs(d[1]) + d[2]
                      for d in radius_hint.values()), default=0.0)

    def scale(value):
        ref = max_radius if max_radius > 0 else max_depth + 1
        return value / (ref * 1.15) * (size / 2)

    center = size / 2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']

    for curve in arr.curves:
        kind = kind_of_curve.get(curve.id)
        color = "black" if kind == BOUNDARY else "gray"
        if curve.id in radius_hint:
            cx, cy, r = radius_hint[curve.id]
            parts.append(
                f'<circle cx="{center + scale(cx):.1f}" '
                f'cy="{center - scale(cy):.1f}" r="{scale(r):.1f}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            # nesting-depth fallback: deepest curves drawn smallest
            d = max((depth.get(arr.edge(e).left, 1) for e in curve.edges),
                    default=1)
            r = (max_depth + 1 - d + 0.5) / (max_depth + 1)
            parts.append(
                f'<circle cx="{center:.1f}" cy="{center:.1f}" '
                f'r="{r * size / 2.3:.1f}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>')

    for face in arr.faces:
        count = born.fiber_counts[face.id]
        if face.draw:
            x, y = center + scale(face.draw[0]), center - scale(face.draw[1])
        else:
            d = depth.get(face.id, 0)
            r = (max_depth + 0.5 - d) / (max_depth + 1) * size / 2.3
            x, y = center + r, center
            if face.unbounded:
                x, y = size - 14, 14
        parts.append(f'<text x="{x:.1f}" y="{y:.1f}" font-size="13" '
                     f'text-anchor="middle">{count}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
