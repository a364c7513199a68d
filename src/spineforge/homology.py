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
    """Mod-2 Betti numbers (b0, b1, b2) of the cell structure."""
    complex_ = cellulate(poly)
    zero_index = {cid: i for i, cid in enumerate(complex_.zero_cells)}
    one_index = {cid: i for i, cid in enumerate(complex_.one_cells)}

    d1 = []
    for cid in complex_.one_cells:
        a, b = complex_.one_cell_ends[cid]
        row = 0
        row ^= 1 << zero_index[a]
        row ^= 1 << zero_index[b]
        d1.append(row)

    d2 = []
    for cid in complex_.two_cells:
        row = 0
        for one_cell in complex_.two_cell_boundary[cid]:
            row ^= 1 << one_index[one_cell]
        d2.append(row)

    c0, c1, c2 = complex_.counts
    r1 = gf2_rank(d1)
    r2 = gf2_rank(d2)
    b0 = c0 - r1
    b1 = (c1 - r1) - r2
    b2 = c2 - r2
    return (b0, b1, b2)
