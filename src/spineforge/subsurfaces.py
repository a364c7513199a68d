"""Closed subsurface search and orientability of selections.

A closed subsurface of a simple polyhedron is a union of whole sheets such
that every triple arc carries exactly 0 or 2 wings of selected sheets and
no selected sheet touches a boundary arc.  For valid polyhedra the vertex
continuation table makes such a selection automatically closed at vertices,
so the search reduces to the per-arc degree constraint plus connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _arc_slot_table(poly):
    """arc_id -> list of (slot, sheet_id, direction)."""
    table = {arc.id: [] for arc in poly.arcs}
    for sheet in poly.sheets:
        for circuit in sheet.circuits:
            for trav in circuit:
                table[trav.arc].append((trav.slot, sheet.id, trav.direction))
    return table


def _selection_arc_slots(poly, sheets, table=None):
    table = table or _arc_slot_table(poly)
    out = {}
    for arc in poly.arcs:
        chosen = tuple(sorted(s for s, sid, _ in table[arc.id] if sid in sheets))
        if chosen:
            out[arc.id] = chosen
    return out


def selection_is_closed(poly, sheets, table=None):
    """Degree check: 2 selected wings on used triple arcs, none on boundary."""
    table = table or _arc_slot_table(poly)
    for arc in poly.arcs:
        n = sum(1 for _, sid, _ in table[arc.id] if sid in sheets)
        if arc.kind == BOUNDARY and n != 0:
            return False
        if arc.kind == TRIPLE and n not in (0, 2):
            return False
    return True


def _selection_connected(poly, sheets, table):
    if not sheets:
        return False
    uf = UnionFind()
    for sid in sheets:
        uf.find(sid)
    for arc in poly.arcs:
        chosen = [sid for _, sid, _ in table[arc.id] if sid in sheets]
        for first, second in zip(chosen, chosen[1:]):
            uf.union(first, second)
    roots = {uf.find(sid) for sid in sheets}
    return len(roots) == 1


def selection_euler(poly, sheets, table=None):
    """Characteristic of the subsurface carried by the selected sheets."""
    table = table or _arc_slot_table(poly)
    used_arcs = [a for a in poly.arcs
                 if sum(1 for _, sid, _ in table[a.id] if sid in sheets) == 2]
    used_open = [a for a in used_arcs if not a.closed]
    used_vertices = {vid for a in used_open for vid, _ in a.endpoints}
    total = sum(poly.sheet(sid).euler for sid in sheets)
    return total + len(used_vertices) - len(used_open)


def selection_orientable(poly, sheets, table=None):
    """Parity union-find over selected sheets; opposite induced directions
    along each shared arc are the compatible case."""
    if any(not poly.sheet(sid).orientable for sid in sheets):
        return False
    table = table or _arc_slot_table(poly)
    uf = ParityUnionFind(sheets)
    for arc in poly.arcs:
        chosen = [(sid, d) for _, sid, d in table[arc.id] if sid in sheets]
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
    table = _arc_slot_table(poly)
    if not selection_is_closed(poly, sheets, table):
        raise SelectionNotClosed(f"selection {sorted(sheets)} is not closed")
    if not _selection_connected(poly, sheets, table):
        raise SelectionNotConnected(f"selection {sorted(sheets)} is not connected")
    return SurfaceSelection(
        sheets=sheets,
        arc_slots=_selection_arc_slots(poly, sheets, table),
        orientable=selection_orientable(poly, sheets, table),
        euler=selection_euler(poly, sheets, table),
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
    # candidate wings numbered in (arc position, slot) order
    wing_slots: list     # wing number -> (arc position, slot)
    sheet_numbers: list  # per candidate, the numbers of its wings


def _closed_search(poly, bound):
    """The walk behind find_closed_surfaces, with each selection's
    orientability decided as it grows and nothing annotated.

    Every included sheet but the seed takes the sign its first completed
    wing pair with an earlier sheet forces, so that the two sheets induce
    opposite directions on the shared arc; every further pair it completes
    only checks that relation.  A count of included sheets that broke it
    (or are non-orientable) then gives each result's orientability.
    """
    require_valid(poly)
    if bound < 1:
        raise ValueError("bound must be positive")
    table = _arc_slot_table(poly)

    # sheets touching boundary arcs can never be selected; every wing a
    # candidate has lies on a triple arc
    banned = {sid for arc in poly.arcs if arc.kind == BOUNDARY
              for _, sid, _ in table[arc.id]}
    # candidates by position in sorted id order, so min() picks the
    # smallest id
    order = sorted(s.id for s in poly.sheets if s.id not in banned)
    index = {sid: i for i, sid in enumerate(order)}

    # per arc, the (sheet, direction) of each candidate wing, in slot order
    arc_wings = []
    sheet_arcs = [[] for _ in order]  # arc positions, one per wing
    sheet_wings = [[] for _ in order]  # (arc position, wing position)
    wing_slots = []  # (arc position, slot), numbered in that order
    sheet_numbers = [[] for _ in order]  # wing numbers
    neighbors = [set() for _ in order]
    for a, arc in enumerate(poly.arcs):
        wings = sorted((slot, index[sid], d) for slot, sid, d in table[arc.id]
                       if sid in index)
        first = len(wing_slots)
        for w, (slot, i, _) in enumerate(wings):
            wing_slots.append((a, slot))
            sheet_arcs[i].append(a)
            sheet_wings[i].append((a, w))
            sheet_numbers[i].append(first + w)
            neighbors[i].update(j for _, j, _ in wings if j != i)
        arc_wings.append([(i, d) for _, i, d in wings])
    nonorientable = [not poly.sheet(sid).orientable for sid in order]

    UNDECIDED, IN, OUT = 0, 1, 2
    state = [UNDECIDED] * len(order)
    # wings per arc: included, and undecided (banned sheets start decided)
    n_in = [0] * len(arc_wings)
    n_open = [len(wings) for wings in arc_wings]
    touching = [0] * len(order)  # included neighbors of each sheet
    frontier = set()  # undecided sheets with an included neighbor
    included = []  # included sheets in include order; undo pops them
    sign = [0] * len(order)  # +-1 on included sheets that reached the seed
    broke = [False] * len(order)
    n_broke = 0  # included sheets whose include broke orientability

    def include(i):
        nonlocal n_broke
        state[i] = IN
        included.append(i)
        frontier.discard(i)
        s = 0
        bad = nonorientable[i]
        for a, w in sheet_wings[i]:
            n_in[a] += 1
            n_open[a] -= 1
            if n_in[a] != 2:
                continue
            # the other included wing; when i has two wings on an arc that
            # another sheet also uses, the arc reaches 3 and is pruned
            wings = arc_wings[a]
            d = wings[w][1]
            for v, (j, dj) in enumerate(wings):
                if v != w and state[j] == IN:
                    break
            if j == i:
                bad = bad or d == dj
            elif not s:
                s = -sign[j] * dj * d
            elif s != -sign[j] * dj * d:
                bad = True
        sign[i] = s
        broke[i] = bad
        n_broke += bad
        for j in neighbors[i]:
            touching[j] += 1
            if state[j] == UNDECIDED:
                frontier.add(j)

    def exclude(i):
        state[i] = OUT
        frontier.discard(i)
        for a in sheet_arcs[i]:
            n_open[a] -= 1

    def undo(i):
        nonlocal n_broke
        if state[i] == IN:
            # the walk undoes decisions in the reverse of their order
            included.pop()
            for a in sheet_arcs[i]:
                n_in[a] -= 1
                n_open[a] += 1
            for j in neighbors[i]:
                touching[j] -= 1
                if not touching[j]:
                    frontier.discard(j)
            sign[i] = 0
            n_broke -= broke[i]
        else:
            for a in sheet_arcs[i]:
                n_open[a] += 1
        state[i] = UNDECIDED
        if touching[i]:
            frontier.add(i)

    def degrees_hold(i):
        # only arcs with an included wing can break the 0-or-2 rule, and a
        # decision changes the counts of the decided sheet's arcs alone
        for a in sheet_arcs[i]:
            n = n_in[a]
            if n > 2 or (n == 1 and not n_open[a]):
                return False
        return True

    results = []
    examined = 0
    truncated = False
    for seed in range(len(order)):
        if seed:
            exclude(seed - 1)
        include(seed)
        sign[seed] = 1
        ok = degrees_hold(seed)
        stack = [seed]
        while True:
            examined += 1
            if examined > bound:
                truncated = True
                break
            if ok:
                if frontier:
                    pick = min(frontier)
                    include(pick)
                    stack.append(pick)
                    ok = degrees_hold(pick)
                    continue
                # every wing of every arc the selection touches is decided,
                # so the counts make it closed; signs spread from the seed
                # along completed wing pairs only, so a sheet without one
                # is not connected to it
                if not all(sign[i] for i in included):
                    raise SelectionNotConnected(
                        f"selection {sorted(order[i] for i in included)} "
                        "is not connected")
                results.append((tuple(included), not n_broke))
            # backtrack: undo finished exclude branches, then turn the
            # deepest include into its exclude branch
            while len(stack) > 1 and state[stack[-1]] == OUT:
                undo(stack.pop())
            if len(stack) == 1:
                break
            pick = stack[-1]
            undo(pick)
            exclude(pick)
            ok = degrees_hold(pick)
        if truncated:
            break
        undo(seed)

    return _RawSearch(results, examined, truncated, order, wing_slots,
                      sheet_numbers)


def _annotated(poly, search, results):
    """SurfaceSelections for raw results of `search`, in order of size,
    then of sorted sheet ids; each is annotated only when it is drawn.

    This is make_selection for a polyhedron already validated: one pass
    over the arcs that carry a selected wing, whose slots come from the
    search's own wing index.  The search decided each selection's
    orientability and connectedness.
    """
    order, wing_slots = search.order, search.wing_slots
    sheet_numbers = search.sheet_numbers
    euler = [poly.sheet(sid).euler for sid in order]
    arcs = [(arc.id, arc.kind == BOUNDARY,
             None if arc.closed else {vid for vid, _ in arc.endpoints})
            for arc in poly.arcs]
    # positions follow sorted ids, so sorting positions sorts the ids
    for chosen, orientable in sorted(results,
                                     key=lambda r: (len(r[0]), sorted(r[0]))):
        # copied from a set, the frozenset's table is sized to fit
        sheets = frozenset({order[i] for i in chosen})
        # sorted, the wing numbers of each arc lie together with their
        # slots in order, and the arcs follow poly.arcs; the selection is
        # closed when they pair off, two wings to an arc (a triple arc has
        # three wings, so one or three selected on an arc leave a pair that
        # straddles two arcs, or a wing over)
        wings = sorted([w for i in chosen for w in sheet_numbers[i]])
        if len(wings) % 2:
            raise SelectionNotClosed(f"selection {sorted(sheets)} is not closed")
        chi = sum(euler[i] for i in chosen)
        arc_slots = {}
        vertices = set()
        for w1, w2 in zip(wings[::2], wings[1::2]):
            a, slot1 = wing_slots[w1]
            b, slot2 = wing_slots[w2]
            arc_id, boundary, ends = arcs[a]
            if boundary or a != b:
                raise SelectionNotClosed(
                    f"selection {sorted(sheets)} is not closed")
            arc_slots[arc_id] = (slot1, slot2)
            if ends is not None:
                chi -= 1
                vertices |= ends
        yield SurfaceSelection(sheets=sheets, arc_slots=arc_slots,
                               orientable=orientable,
                               euler=chi + len(vertices))
