"""Cell decomposition and mod-2 homology of a simple polyhedron.

The cell structure refines the incidence data directly:

* 0-cells: branch vertices, one auxiliary point on every closed arc, and
  one hub point in the interior of every sheet;
* 1-cells: one per arc (split nothing -- traversals reuse the arc cell),
  2g loops (or k loops when non-orientable) at each sheet hub, and one
  connector from each hub to the start point of each boundary circuit;
* 2-cells: one per sheet, attached along the usual surface word
  (handle commutators or crosscap squares, then connector-circuit-connector
  runs).

Over GF(2) the handle and crosscap letters cancel in the boundary, so the
boundary of a sheet cell is the mod-2 sum of the arcs its circuits traverse.

`cellulate` builds this structure explicitly, with named cells.
`z2_homology` reads the same boundary maps straight from the polyhedron as
integer bitmask rows, one bit per cell, and takes their ranks over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import require_valid


@dataclass(frozen=True)
class CellComplex:
    zero_cells: tuple
    one_cells: tuple          # ids
    one_cell_ends: dict       # id -> (zero_id, zero_id)
    two_cells: tuple          # ids
    two_cell_boundary: dict   # id -> tuple of 1-cell ids, mod-2 reduced
    counts: tuple             # (c0, c1, c2)

    @property
    def euler(self):
        c0, c1, c2 = self.counts
        return c0 - c1 + c2


def _circuit_start_zero_cell(poly, circuit):
    """The 0-cell where a circuit's first traversal begins."""
    trav = circuit[0]
    arc = poly.arc(trav.arc)
    if arc.closed:
        return "aux:" + arc.id
    end_index = 0 if trav.direction > 0 else 1
    vid, _ = arc.endpoints[end_index]
    return "v:" + vid


def cellulate(poly):
    """A finite regular-enough cell structure with matching Euler count."""
    require_valid(poly)

    zero = []
    one = []
    ends = {}
    two = []
    boundary = {}

    for vertex in poly.vertices:
        zero.append("v:" + vertex.id)
    for arc in poly.arcs:
        if arc.closed:
            zero.append("aux:" + arc.id)

    for arc in poly.arcs:
        cid = "arc:" + arc.id
        one.append(cid)
        if arc.closed:
            ends[cid] = ("aux:" + arc.id, "aux:" + arc.id)
        else:
            ends[cid] = ("v:" + arc.endpoints[0][0], "v:" + arc.endpoints[1][0])

    for sheet in poly.sheets:
        hub = "hub:" + sheet.id
        zero.append(hub)
        loops = sheet.genus * (2 if sheet.orientable else 1)
        for i in range(loops):
            cid = f"loop:{sheet.id}:{i}"
            one.append(cid)
            ends[cid] = (hub, hub)
        word = []
        # handle/crosscap letters appear twice each: they vanish mod 2
        for ci, circuit in enumerate(sheet.circuits):
            cid = f"conn:{sheet.id}:{ci}"
            one.append(cid)
            ends[cid] = (hub, _circuit_start_zero_cell(poly, circuit))
            # conn . circuit . conn^-1 : connector cancels mod 2
            for trav in circuit:
                word.append("arc:" + trav.arc)
        cell = "face:" + sheet.id
        two.append(cell)
        reduced = {}
        for item in word:
            reduced[item] = reduced.get(item, 0) ^ 1
        boundary[cell] = tuple(sorted(k for k, bit in reduced.items() if bit))

    return CellComplex(
        zero_cells=tuple(zero),
        one_cells=tuple(one),
        one_cell_ends=ends,
        two_cells=tuple(two),
        two_cell_boundary=boundary,
        counts=(len(zero), len(one), len(two)),
    )


def gf2_rank(rows):
    """Rank over GF(2) of a list of bitmask integers.

    The pivots are kept in a table keyed by their leading bit, so each
    reduction step clears the row's leading bit with one lookup; a row whose
    leading bit has no pivot becomes one.
    """
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def z2_homology(poly):
    """Mod-2 Betti numbers (b0, b1, b2) of the cell structure that
    cellulate builds explicitly, from its counts (c0, c1, c2) and the
    ranks over GF(2) of its boundary maps.

    The boundary maps are integer bitmask rows built from poly.arcs and the
    circuits, without naming a cell.  In a row of d1, the 0-cells are bits:
    the vertices, then the auxiliary point of each closed arc, then the
    sheet hubs.  An open arc's row holds its two ends, a connector's its hub
    and its circuit's start point; a loop or a closed arc bounds nothing,
    so its row is zero and only counts.  In a row of d2, one per sheet, the
    arcs are bits, in poly.arcs order, and a sheet's row is the XOR of the
    arcs its traversals cross.
    """
    require_valid(poly)
    point = {vertex.id: 1 << k for k, vertex in enumerate(poly.vertices)}
    c0 = len(point)
    arc_bit, ends, d1 = {}, {}, []
    for a, arc in enumerate(poly.arcs):
        arc_bit[arc.id] = 1 << a
        if arc.closed:  # both ends at its auxiliary point
            ends[arc.id] = (1 << c0, 1 << c0)
            c0 += 1
        else:
            (v, _), (w, _) = arc.endpoints
            ends[arc.id] = (point[v], point[w])
            d1.append(point[v] ^ point[w])
    c1 = len(poly.arcs)
    d2 = []
    for sheet in poly.sheets:
        hub = 1 << c0
        c0 += 1
        c1 += sheet.genus * (2 if sheet.orientable else 1)
        row = 0
        for circuit in sheet.circuits:
            # the connector to where the circuit's first traversal begins
            c1 += 1
            first = circuit[0]
            d1.append(hub ^ ends[first.arc][first.direction < 0])
            for trav in circuit:
                row ^= arc_bit[trav.arc]
        d2.append(row)
    c2 = len(d2)
    r1 = gf2_rank(d1)
    r2 = gf2_rank(d2)
    return (c0 - r1, c1 - r1 - r2, c2 - r2)
