"""Closed subsurface search and orientability of selections.

A closed subsurface of a simple polyhedron is a union of whole sheets such
that every triple arc carries exactly 0 or 2 wings of selected sheets and
no selected sheet touches a boundary arc.  For valid polyhedra the vertex
continuation table makes such a selection automatically closed at vertices,
so the search reduces to the per-arc degree constraint plus connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .core import BOUNDARY, TRIPLE, ParityUnionFind, UnionFind, require_valid
from .errors import SelectionNotClosed, SelectionNotConnected


@dataclass(frozen=True)
class SurfaceSelection:
    sheets: frozenset
    # arc_id -> tuple of selected slots (length 0 entries omitted)
    arc_slots: dict
    orientable: bool
    euler: int

    def key(self):
        return tuple(sorted(self.sheets))


@dataclass(frozen=True)
class SelectionSearch:
    selections: tuple
    examined: int
    truncated: bool


def _selected(poly, arc, sheets):
    """(slot, sheet id, direction) of each wing of `arc` in a selected sheet."""
    return [(slot, sid, d) for slot, (sid, _, _, d) in poly._wings[arc.id].items()
            if sid in sheets]


def _selection_arc_slots(poly, sheets):
    out = {}
    for arc in poly.arcs:
        chosen = tuple(sorted(slot for slot, _, _ in _selected(poly, arc, sheets)))
        if chosen:
            out[arc.id] = chosen
    return out


def selection_is_closed(poly, sheets):
    """Degree check: 2 selected wings on used triple arcs, none on boundary."""
    for arc in poly.arcs:
        n = len(_selected(poly, arc, sheets))
        if arc.kind == BOUNDARY and n != 0:
            return False
        if arc.kind == TRIPLE and n not in (0, 2):
            return False
    return True


def _selection_connected(poly, sheets):
    if not sheets:
        return False
    uf = UnionFind()
    for sid in sheets:
        uf.find(sid)
    for arc in poly.arcs:
        chosen = [sid for _, sid, _ in _selected(poly, arc, sheets)]
        for first, second in zip(chosen, chosen[1:]):
            uf.union(first, second)
    roots = {uf.find(sid) for sid in sheets}
    return len(roots) == 1


def selection_euler(poly, sheets):
    """Characteristic of the subsurface carried by the selected sheets."""
    used_arcs = [a for a in poly.arcs if len(_selected(poly, a, sheets)) == 2]
    used_open = [a for a in used_arcs if not a.closed]
    used_vertices = {vid for a in used_open for vid, _ in a.endpoints}
    total = sum(poly.sheet(sid).euler for sid in sheets)
    return total + len(used_vertices) - len(used_open)


def selection_orientable(poly, sheets):
    """Parity union-find over selected sheets; opposite induced directions
    along each shared arc are the compatible case."""
    if any(not poly.sheet(sid).orientable for sid in sheets):
        return False
    uf = ParityUnionFind(sheets)
    for arc in poly.arcs:
        chosen = [(sid, d) for _, sid, d in _selected(poly, arc, sheets)]
        if len(chosen) == 2:
            (s1, d1), (s2, d2) = chosen
            if not _wing_pair_orientable(uf, s1, d1, s2, d2):
                return False
    return True


def _wing_pair_orientable(uf, s1, d1, s2, d2):
    """Record the sign relation two selected wings of one arc impose; False
    when it cannot hold."""
    if s1 == s2:
        return d1 != d2
    # compatible with equal signs exactly when the written directions
    # already disagree
    return uf.union(s1, s2, 0 if d1 != d2 else 1)


def make_selection(poly, sheets):
    """Build an annotated SurfaceSelection; raises when not closed/connected."""
    require_valid(poly)
    sheets = frozenset(sheets)
    if not selection_is_closed(poly, sheets):
        raise SelectionNotClosed(f"selection {sorted(sheets)} is not closed")
    if not _selection_connected(poly, sheets):
        raise SelectionNotConnected(f"selection {sorted(sheets)} is not connected")
    return SurfaceSelection(
        sheets=sheets,
        arc_slots=_selection_arc_slots(poly, sheets),
        orientable=selection_orientable(poly, sheets),
        euler=selection_euler(poly, sheets),
    )


def surface_orientability(poly, selection):
    """Orientable(genus) or NonOrientable(crosscaps) for a closed selection.

    Accepts either a SurfaceSelection or a bare iterable of sheet ids.
    """
    sheets = selection.sheets if isinstance(selection, SurfaceSelection) else frozenset(selection)
    sel = make_selection(poly, sheets)
    if sel.orientable:
        if sel.euler % 2 != 0:
            raise SelectionNotClosed("odd characteristic on an orientable selection")
        return ("orientable", (2 - sel.euler) // 2)
    return ("nonorientable", 2 - sel.euler)


def find_closed_surfaces(poly, bound):
    """All connected closed selections, capped by `bound` examined states.

    A state is one include or exclude decision on a sheet.  From each seed,
    taken in sorted order with the earlier seeds excluded, the search grows
    connected selections by deciding the smallest undecided sheet adjacent
    to the included ones, first including and then excluding it.  Per-arc
    counts of included and undecided wings are updated on every decision
    and undone on backtracking, so only the decided sheet's arcs are checked
    again, and the depth-first walk keeps its own stack.  The selections
    come in order of size, then of sorted sheet ids.
    """
    search = _closed_search(poly, bound)
    return SelectionSearch(selections=tuple(_annotated(poly, search, search.results)),
                           examined=search.examined, truncated=search.truncated)


class _RawSearch(NamedTuple):
    # (positions in `order` of the selected sheets, orientable), in the
    # order they were found
    results: list
    examined: int
    truncated: bool
    order: list        # candidate sheet ids, sorted
    # candidate wings are numbered in (arc position, slot) order
    sheet_numbers: list  # per candidate, the numbers of its wings
    # (w1, w2) with w1 < w2 on one triple arc -> (arc id, (slot1, slot2))
    pairs: dict


def _closed_search(poly, bound):
    """The walk behind find_closed_surfaces, with each selection's
    orientability decided as it grows and nothing annotated.

    Every included sheet but the seed takes the sign its first completed
    wing pair with an earlier sheet forces, so that the two sheets induce
    opposite directions on the shared arc; every further pair it completes
    only checks that relation.  A count of included sheets that broke it
    (or are non-orientable) then gives each result's orientability.

    Include, exclude, undo and the degree check are inlined in one loop,
    and an include checks each arc as it counts the wing.  Backtracking turns
    a finished include branch straight into its exclude branch (IN to OUT):
    the sheet's wings stay decided, so the undecided counts and the frontier
    entry it never had are left alone.  A finished seed is turned the same
    way and stays excluded for the later seeds.  Signs spread from the seed
    along completed wing pairs only, so a count of included sheets without
    a sign tells at each leaf, in O(1), that the selection is connected.
    """
    require_valid(poly)
    if bound < 1:
        raise ValueError("bound must be positive")
    wings_of = poly._wings

    # sheets touching boundary arcs can never be selected; every wing a
    # candidate has lies on a triple arc
    banned = {wing[0] for arc in poly.arcs if arc.kind == BOUNDARY
              for wing in wings_of[arc.id].values()}
    # candidates by position in sorted id order, so min() picks the
    # smallest id
    order = sorted(s.id for s in poly.sheets if s.id not in banned)
    index = {sid: i for i, sid in enumerate(order)}

    sheet_arcs = [[] for _ in order]  # arc positions, one per wing
    # per wing: (arc position, its direction, the (sheet, direction) of the
    # arc's other candidate wings in slot order)
    sheet_wings = [[] for _ in order]
    sheet_numbers = [[] for _ in order]  # wing numbers
    pairs = {}
    neighbors = [set() for _ in order]
    n_open = []  # undecided wings per arc (banned sheets start decided)
    first = 0  # the number of the arc's first wing
    for a, arc in enumerate(poly.arcs):
        wings = sorted((slot, index[sid], d)
                       for slot, (sid, _, _, d) in wings_of[arc.id].items()
                       if sid in index)
        for w, (slot, i, d) in enumerate(wings):
            sheet_arcs[i].append(a)
            sheet_wings[i].append((a, d, [(j, dj) for v, (_, j, dj)
                                          in enumerate(wings) if v != w]))
            sheet_numbers[i].append(first + w)
            neighbors[i].update(j for _, j, _ in wings if j != i)
            for v in range(w + 1, len(wings)):
                pairs[first + w, first + v] = (arc.id, (slot, wings[v][0]))
        n_open.append(len(wings))
        first += len(wings)
    nonorientable = [not poly.sheet(sid).orientable for sid in order]

    UNDECIDED, IN, OUT = 0, 1, 2
    state = [UNDECIDED] * len(order)
    n_in = [0] * len(n_open)  # included wings per arc
    touching = [0] * len(order)  # included neighbors of each sheet
    frontier = set()  # undecided sheets with an included neighbor
    included = []  # included sheets in include order
    sign = [0] * len(order)  # +-1 on included sheets that reached the seed
    broke = [False] * len(order)
    n_broke = 0  # included sheets whose include broke orientability
    n_unsigned = 0  # included sheets without a sign

    results = []
    examined = 0
    truncated = False
    for seed in range(len(order)):
        stack = [seed]
        i = seed
        while True:
            if state[i] == UNDECIDED:  # include i
                state[i] = IN
                included.append(i)
                frontier.discard(i)
                s = 1 if i == seed else 0
                bad = nonorientable[i]
                # only arcs with an included wing can break the 0-or-2
                # rule, and a decision changes the counts of the decided
                # sheet's arcs alone; a count checked before i's last wing
                # on its arc fails only when the final one does
                ok = True
                for a, d, others in sheet_wings[i]:
                    k = n_in[a] = n_in[a] + 1
                    n_open[a] -= 1
                    if k != 2:
                        if k > 2 or not n_open[a]:
                            ok = False
                        continue
                    # the other included wing; when i has two wings on an
                    # arc that another sheet also uses, the arc reaches 3
                    # and is pruned
                    for j, dj in others:
                        if state[j] == IN:
                            break
                    if j == i:
                        bad = bad or d == dj
                    elif not s:
                        s = -sign[j] * dj * d
                    elif s != -sign[j] * dj * d:
                        bad = True
                sign[i] = s
                n_unsigned += not s
                broke[i] = bad
                n_broke += bad
                for j in neighbors[i]:
                    touching[j] += 1
                    if state[j] == UNDECIDED:
                        frontier.add(j)
            examined += 1
            if examined > bound:
                truncated = True
                break
            if ok:
                if frontier:
                    i = min(frontier)
                    stack.append(i)
                    continue
                # every wing of every arc the selection touches is decided,
                # so the counts make it closed
                if n_unsigned:
                    raise SelectionNotConnected(
                        f"selection {sorted(order[i] for i in included)} "
                        "is not connected")
                results.append((tuple(included), not n_broke))
            # backtrack: undo finished exclude branches (the seed is never
            # one), then turn the deepest include into its exclude branch
            i = stack[-1]
            while state[i] == OUT:
                stack.pop()
                state[i] = UNDECIDED
                for a in sheet_arcs[i]:
                    n_open[a] += 1
                if touching[i]:
                    frontier.add(i)
                i = stack[-1]
            state[i] = OUT
            included.pop()  # the deepest include is the last one
            for a in sheet_arcs[i]:
                n_in[a] -= 1
            for j in neighbors[i]:
                touching[j] -= 1
                if not touching[j]:
                    frontier.discard(j)
            n_unsigned -= not sign[i]
            sign[i] = 0
            n_broke -= broke[i]
            if len(stack) == 1:
                break
            # checked once all of i's wings are out: an arc where i had two
            # can pass through a count of one with no undecided wing
            ok = True
            for a in sheet_arcs[i]:
                k = n_in[a]
                if k > 2 or (k == 1 and not n_open[a]):
                    ok = False
                    break
        if truncated:
            break

    return _RawSearch(results, examined, truncated, order, sheet_numbers,
                      pairs)


def _annotated(poly, search, results):
    """SurfaceSelections for raw results of `search`, in order of size,
    then of sorted sheet ids; each is annotated only when it is drawn.

    This is make_selection for a polyhedron already validated, read from
    the search's own wing index.  The search decided each selection's
    orientability and connectedness.
    """
    order, sheet_numbers, pairs = search.order, search.sheet_numbers, search.pairs
    euler = [poly.sheet(sid).euler for sid in order]
    open_ends = {arc.id: frozenset(vid for vid, _ in arc.endpoints)
                 for arc in poly.arcs if not arc.closed}
    # positions follow sorted ids, so sorting positions sorts the ids
    for chosen, orientable in sorted(results,
                                     key=lambda r: (len(r[0]), sorted(r[0]))):
        # copied from a set, the frozenset's table is sized to fit
        sheets = frozenset(set(map(order.__getitem__, chosen)))
        # sorted, the wing numbers of each arc lie together with their
        # slots in order, and the arcs follow poly.arcs; the selection is
        # closed when they pair off, two wings to a triple arc (three
        # wings on an arc leave one over, which pairs with the next arc's)
        wings = sorted(chain.from_iterable(map(sheet_numbers.__getitem__,
                                               chosen)))
        found = list(map(pairs.get, zip(wings[::2], wings[1::2])))
        if len(wings) % 2 or None in found:
            raise SelectionNotClosed(f"selection {sorted(sheets)} is not closed")
        arc_slots = dict(found)
        ends = list(filter(None, map(open_ends.get, arc_slots)))
        yield SurfaceSelection(
            sheets=sheets, arc_slots=arc_slots, orientable=orientable,
            euler=(sum(map(euler.__getitem__, chosen)) - len(ends)
                   + len(frozenset().union(*ends))))
