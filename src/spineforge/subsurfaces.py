"""Closed subsurface search and orientability of selections.

A closed subsurface of a simple polyhedron is a union of whole sheets such
that every triple arc carries exactly 0 or 2 wings of selected sheets and
no selected sheet touches a boundary arc.  For valid polyhedra the vertex
continuation table makes such a selection automatically closed at vertices,
so the search reduces to the per-arc degree constraint plus connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from .core import BOUNDARY, ParityUnionFind, require_valid
from .errors import SelectionNotClosed, SelectionNotConnected

_DIGITS = bytes.maketrans(b"01", b"\0\1")  # digits to flags for compress


@dataclass(frozen=True, slots=True)
class SurfaceSelection:
    sheets: frozenset
    # arc_id -> tuple of selected slots (length 0 entries omitted)
    arc_slots: dict
    orientable: bool
    euler: int
    # a selection the search yields holds what the walk decided, its
    # orientability, and leaves sheets, arc_slots and euler unset; they are
    # derived from its polyhedron and include mask on first read, sheets on
    # its own and arc_slots with euler (see __getattr__)
    _poly: object = field(default=None, init=False, compare=False)
    _chosen: int = field(default=None, init=False, compare=False)

    def key(self):
        return tuple(sorted(self.sheets))

    def __repr__(self):  # sheets listed as key() lists them
        sheets = ", ".join(map(repr, self.key()))
        return (f"SurfaceSelection(sheets=frozenset({{{sheets}}}), "
                f"arc_slots={self.arc_slots!r}, "
                f"orientable={self.orientable!r}, euler={self.euler!r})")

    def __reduce__(self):  # pickled as make_selection builds it
        return SurfaceSelection, (self.sheets, self.arc_slots,
                                  self.orientable, self.euler)

    def __getattr__(self, name):
        # reached only for an unset slot; a derived one is never unset, so
        # two threads reading at once both derive and store the same values
        if (name not in ("sheets", "arc_slots", "euler")
                or self._poly is None):
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        # the mask's digits, lowest first, pick the sheets; copied from a
        # set, the frozenset's table is sized to fit
        digits = bin(self._chosen)[:1:-1].encode().translate(_DIGITS)
        sheets = frozenset(set(compress(_index(self._poly).order, digits)))
        if name == "sheets":
            object.__setattr__(self, "sheets", sheets)
            return sheets
        arc_slots, euler = _closed_annotation(self._poly, sheets,
                                              _selected(self._poly, sheets))
        object.__setattr__(self, "arc_slots", arc_slots)
        object.__setattr__(self, "euler", euler)
        return arc_slots if name == "arc_slots" else euler


@dataclass(frozen=True)
class SelectionSearch:
    selections: tuple
    examined: int
    truncated: bool


def _selected(poly, sheets):
    """arc id -> the (slot, sheet id, direction) of each of its wings in a
    selected sheet, by slot, for the arcs that have any, in poly.arcs
    order: the wing table read only at the arcs the sheets' circuits run
    along, which every selection helper reads."""
    unknown = set(sheets) - poly._sheet_by_id.keys()
    if unknown:
        raise SelectionNotClosed(f"selection names unknown sheets {sorted(unknown)}")
    wings_of = poly._wings
    along = {trav.arc for sid in sheets
             for circuit in poly.sheet(sid).circuits for trav in circuit}
    return {aid: sorted([(slot, sid, d)
                         for slot, (sid, d) in wings_of[aid].items()
                         if sid in sheets])
            for aid in wings_of if aid in along}


def _euler(poly, sheets, selected):
    used = [poly.arc(aid) for aid, wings in selected.items() if len(wings) == 2]
    used_open = [a for a in used if not a.closed]
    used_vertices = {vid for a in used_open for vid, _ in a.endpoints}
    total = sum(poly.sheet(sid).euler for sid in sheets)
    return total + len(used_vertices) - len(used_open)


def _signed(poly, sheets, selected):
    """(pieces, orientable): one parity union-find over the arcs with two
    selected wings.  It goes on uniting after a sign contradiction, so
    that it still counts the pieces those arcs join."""
    uf = ParityUnionFind(sheets)
    orientable = all(poly.sheet(sid).orientable for sid in sheets)
    for wings in selected.values():
        if len(wings) == 2:
            (_, s1, d1), (_, s2, d2) = wings
            # equal signs fit exactly when the written directions disagree
            orientable = uf.union(s1, s2, int(d1 == d2)) and orientable
    return uf.sets, orientable


def selection_is_closed(poly, sheets):
    """Degree check: 0 or 2 selected wings on every arc, which leaves none
    on a boundary arc, since it has one."""
    sheets = frozenset(sheets)
    return all(len(wings) == 2 for wings in _selected(poly, sheets).values())


def selection_euler(poly, sheets):
    """Characteristic of the subsurface carried by the selected sheets."""
    sheets = frozenset(sheets)
    return _euler(poly, sheets, _selected(poly, sheets))


def selection_orientable(poly, sheets):
    """Parity union-find over selected sheets; opposite induced directions
    along each shared arc are the compatible case."""
    sheets = frozenset(sheets)
    return _signed(poly, sheets, _selected(poly, sheets))[1]


def _closed_annotation(poly, sheets, selected):
    """(arc_slots, euler) of a selection from its _selected table, for
    make_selection and a searched selection alike; raises unless closed."""
    if any(len(wings) != 2 for wings in selected.values()):
        raise SelectionNotClosed(f"selection {sorted(sheets)} is not closed")
    return ({aid: (w1[0], w2[0]) for aid, (w1, w2) in selected.items()},
            _euler(poly, sheets, selected))


def make_selection(poly, sheets):
    """Build an annotated SurfaceSelection; raises when not closed/connected."""
    sheets = frozenset(sheets)
    selected = _selected(poly, sheets)
    arc_slots, euler = _closed_annotation(poly, sheets, selected)
    pieces, orientable = _signed(poly, sheets, selected)
    if pieces != 1:
        raise SelectionNotConnected(f"selection {sorted(sheets)} is not connected")
    return SurfaceSelection(sheets=sheets, arc_slots=arc_slots,
                            orientable=orientable, euler=euler)


def surface_orientability(poly, selection):
    """Orientable(genus) or NonOrientable(crosscaps) for a closed selection,
    given as a SurfaceSelection or as a bare iterable of sheet ids."""
    sheets = selection.sheets if isinstance(selection, SurfaceSelection) else frozenset(selection)
    sel = make_selection(poly, sheets)
    if sel.orientable:
        if sel.euler % 2 != 0:
            raise SelectionNotClosed("odd characteristic on an orientable selection")
        return ("orientable", (2 - sel.euler) // 2)
    return ("nonorientable", 2 - sel.euler)


def find_closed_surfaces(poly, bound):
    """All connected closed selections, capped by `bound` examined states.

    A state is one attempt to include a sheet.  From each seed, taken in
    sorted order, the search grows a selection through its open arcs, the
    arcs with exactly one included wing.  It picks the open arc with the
    fewest sheets that could complete it (one wing on the arc, not yet
    included, not an earlier seed) and tries each such sheet in turn; a
    selection with no open arc is closed.  Each sheet after the seed joins
    through a completed wing pair, so every selection is connected, and no
    selection is reached twice.  The selections come in order of size,
    then of sorted sheet ids.  The tables the search reads are built on
    the first search of a polyhedron object and kept on it, as is a
    search the bound did not cut (see _closed_search).  A selection's
    sheets are derived from them on their first read, and its arc_slots
    and euler, by make_selection's rule, on the first read of either.
    """
    results, examined, truncated = _closed_search(poly, bound)
    return SelectionSearch(selections=tuple(_annotated(poly, results)),
                           examined=examined, truncated=truncated)


def nonorientable_selections(poly, bound):
    """The non-orientable selections find_closed_surfaces(poly, bound)
    lists, in its order, as an iterator that builds each only when it is
    drawn, and whether the search was truncated."""
    results, _, truncated = _closed_search(poly, bound)
    return _annotated(poly, [r for r in results if not r[2]]), truncated


class _Index(NamedTuple):
    """What the search, and a selection it yields to name its sheets, read
    of one polyhedron.  The candidates are the sheets on no boundary arc,
    by descending id, so that a larger include mask holds smaller ids."""
    order: list          # candidate sheet ids, descending
    nonorientable: list  # per candidate
    single: list  # per arc, the mask of candidates with one wing on it
    odd: list     # per candidate, the mask of arcs where it has one wing
    # per candidate, one (sheet mask, two-wing mask, own wings, rel) per
    # arc it lies on; with one own wing, rel is the mask that, XORed with
    # the walk's `neg`, has the partner's bit set when the pair forces
    # sign -1, and with two it is whether they break orientability
    arcs_of: list


def _index(poly):
    """The _Index of a valid polyhedron, kept in its __dict__ once built."""
    if "_closed_index" in poly.__dict__:
        return poly.__dict__["_closed_index"]
    wings_of = poly._wings
    banned = {wing[0] for arc in poly.arcs if arc.kind == BOUNDARY
              for wing in wings_of[arc.id].values()}
    order = sorted((s.id for s in poly.sheets if s.id not in banned),
                   reverse=True)
    position = {sid: i for i, sid in enumerate(order)}
    single, odd, arcs_of = [], [0] * len(order), [[] for _ in order]
    for a, arc in enumerate(poly.arcs):
        wings = [(position[sid], d)
                 for sid, d in wings_of[arc.id].values()
                 if sid in position]
        mask = twice = flip = 0
        for i, d in wings:
            twice |= mask & 1 << i
            mask |= 1 << i
            flip |= (d < 0) << i
        single.append(mask & ~twice)
        for i in dict.fromkeys(i for i, _ in wings):
            own = [d for j, d in wings if j == i]
            rel = (own[0] == own[1] if len(own) > 1
                   else flip if own[0] < 0 else ~flip)
            arcs_of[i].append((mask, twice, len(own), rel))
            odd[i] |= (len(own) == 1) << a
    index = poly.__dict__["_closed_index"] = _Index(
        order, [not poly.sheet(sid).orientable for sid in order],
        single, odd, arcs_of)
    return index


def _closed_search(poly, bound):
    """_walk over the polyhedron's _Index.  An uncut walk is kept in its
    __dict__; a later bound it fits in gets it back, as a fresh walk would."""
    require_valid(poly)
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be a positive integer, not {bound!r}")
    kept = poly.__dict__.get("_closed_walk")
    if kept is not None and bound >= kept[1]:
        return kept[0], kept[1], False
    results, examined, truncated = _walk(_index(poly), bound)
    if not truncated:
        poly.__dict__["_closed_walk"] = (results, examined)
    return results, examined, truncated


def _walk(index, bound):
    """The walk behind find_closed_surfaces, deciding orientability as a
    selection grows and annotating nothing.  Returns (results, examined,
    truncated), results a tuple of (size, -inc, orientable) triples, one
    per selection.  They sort in the order find_closed_surfaces lists
    them: of two equal-size selections, the one holding the smallest id
    they do not share has the larger `inc`.

    The state is a few ints: bit i of `inc` stands for the included sheet
    `order[i]` and bit i of `neg` for one signed -1, and bit a of `opened`
    for the open arc `poly.arcs[a]`.  An arc's included wings are the
    popcounts against `inc` of its sheet mask and of its mask of sheets
    with two wings on it, and including a sheet with one wing on an arc
    flips whether the arc is open.  An include checks only the included
    sheet's arcs.

    Every state is one include.  Seeds are taken in ascending id order,
    which is descending position.  Of the open arcs, the walk branches on
    the first in `poly.arcs` order with at most one completer, else the
    first with the fewest, and tries the completers in ascending id order.

    A sheet joining through a completed wing pair takes the sign that
    pair forces, so that the two sheets induce opposite directions on the
    shared arc; every further pair it completes only checks that relation,
    and `flat` is cleared when one fails (or the sheet is non-orientable).

    A frame is a state to try: the parent's `inc`, `neg`, `flat` and
    `opened`, and the sheet to include.
    Backtracking pops the next frame, so nothing is undone by hand.
    """
    _, nonorientable, single, odd, arcs_of = index

    results, examined, truncated = [], 0, False
    for seed in reversed(range(len(index.order))):
        taken = -1 << seed + 1  # the earlier seeds
        stack = [(0, 0, True, 0, seed)]
        while stack:
            inc, neg, flat, opened, i = stack.pop()
            examined += 1
            if examined > bound:
                truncated = True
                break
            bit = 1 << i
            minus, bad = None, nonorientable[i]
            for mask, twice, w, rel in arcs_of[i]:
                # i is not in inc; an arc where it has three wings has no
                # other sheet, and fails at once
                pair = mask & inc
                k = pair.bit_count() + w
                if twice:
                    k += (twice & inc).bit_count()
                if k > 2:  # the include fails
                    break
                if k == 2:
                    if w == 2:  # i's own two wings pair up
                        bad = bad or rel
                    elif minus is None:  # with an included sheet's wing
                        minus = bool(pair & (neg ^ rel))
                    elif minus != bool(pair & (neg ^ rel)):
                        bad = True
            else:
                inc |= bit
                if minus:
                    neg |= bit
                flat = flat and not bad
                opened ^= odd[i]
                if not opened:
                    # every arc the selection touches carries 0 or 2 wings
                    results.append((inc.bit_count(), -inc, flat))
                    continue
                # the open arc with the fewest completers, taking the first
                # with at most one at once
                rest, avoid, fewest = opened, taken | inc, None
                while rest:
                    low = rest & -rest
                    rest ^= low
                    can = single[low.bit_length() - 1] & ~avoid
                    if fewest is None or can.bit_count() < fewest.bit_count():
                        fewest = can
                        if can.bit_count() <= 1:
                            break
                # pushed from the bottom, so the smallest id pops first
                while fewest:
                    low = fewest & -fewest
                    stack.append((inc, neg, flat, opened,
                                  low.bit_length() - 1))
                    fewest ^= low
        if truncated:
            break

    return tuple(results), examined, truncated


def _annotated(poly, results):
    """SurfaceSelections for raw results of _closed_search(poly, ...), in
    their sorted order (see _walk).  Each is built only when it is drawn,
    from the include mask and orientability the walk decided, and derives
    its sheets, arc_slots and euler on first read (see SurfaceSelection)."""
    new = object.__new__
    put_orientable = SurfaceSelection.orientable.__set__
    put_poly = SurfaceSelection._poly.__set__
    put_chosen = SurfaceSelection._chosen.__set__
    for _, mask, orientable in sorted(results):
        selection = new(SurfaceSelection)
        put_orientable(selection, orientable)
        put_poly(selection, poly)
        put_chosen(selection, -mask)
        yield selection
