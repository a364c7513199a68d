import dataclasses
import glob
import itertools
import math
import pathlib
import pickle
import random
import sys
import threading
import types

import pytest

from spineforge.core import SheetSpec, SimplePolyhedron
from spineforge.errors import SelectionNotClosed, SelectionNotConnected
from spineforge.formats import parse_spoly
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_sphere_fixture, build_surgered_example,
                                build_theta)
from spineforge.homology import gf2_rank, z2_homology
from spineforge.obstruction import s3_obstruction
from spineforge.subsurfaces import (_Index, _annotated, _index,
                                    find_closed_surfaces, make_selection,
                                    nonorientable_selections,
                                    selection_euler, selection_is_closed,
                                    selection_orientable,
                                    surface_orientability)

from conftest import repo_path
from randgen import random_round_map, random_surgered_maps, tower_map


def brute_force_selections(poly):
    """Oracle: enumerate all sheet subsets and keep the connected closed ones."""
    sheets = [s.id for s in poly.sheets]
    table = {}
    for sheet in poly.sheets:
        for circuit in sheet.circuits:
            for trav in circuit:
                table.setdefault(trav.arc, []).append(sheet.id)
    out = []
    for r in range(1, len(sheets) + 1):
        for combo in itertools.combinations(sheets, r):
            chosen = set(combo)
            ok = True
            for arc in poly.arcs:
                n = sum(1 for sid in table.get(arc.id, []) if sid in chosen)
                limit = (0,) if arc.kind == "boundary" else (0, 2)
                if n not in limit:
                    ok = False
                    break
            if ok and flood_fill(poly, table, chosen) == chosen:
                out.append(frozenset(chosen))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def flood_fill(poly, table, chosen):
    """The chosen sheets reachable from the smallest one through arcs that
    two chosen sheets share."""
    start = min(chosen)
    reached, frontier = {start}, [start]
    while frontier:
        sid = frontier.pop()
        for arc in poly.arcs:
            members = [m for m in table.get(arc.id, []) if m in chosen]
            if sid in members:
                for other in members:
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
    return reached


def brute_force_orientable(poly, sheets):
    """Oracle: try every +-1 assignment against the opposite-direction rule."""
    sheets = sorted(sheets)
    if any(not poly.sheet(s).orientable for s in sheets):
        return False
    table = {}
    for sid in sheets:
        for circuit in poly.sheet(sid).circuits:
            for trav in circuit:
                table.setdefault(trav.arc, []).append((sid, trav.direction))
    used = {arc: pairs for arc, pairs in table.items() if len(pairs) == 2}
    for signs in itertools.product((1, -1), repeat=len(sheets)):
        sign = dict(zip(sheets, signs))
        if all(sign[a] * da + sign[b] * db == 0
               for (a, da), (b, db) in used.values()):
            return True
    return False


def test_theta_has_three_sphere_selections():
    theta = build_theta()
    search = find_closed_surfaces(theta, 1000)
    assert not search.truncated
    keys = [tuple(sorted(s.sheets)) for s in search.selections]
    assert keys == [("w0", "w1"), ("w0", "w2"), ("w1", "w2")]
    for selection in search.selections:
        assert selection.orientable
        assert selection.euler == 2
        assert surface_orientability(theta, selection) == ("orientable", 0)


def test_closed_sheet_has_single_selection():
    poly = build_closed_sheet(2)
    search = find_closed_surfaces(poly, 1000)
    assert len(search.selections) == 1
    assert search.selections[0].sheets == frozenset({"s"})
    assert surface_orientability(poly, search.selections[0]) == ("orientable", 2)


def test_crosscap_sheet_orientability():
    poly = build_closed_sheet(1, orientable=False)
    assert surface_orientability(poly, {"s"}) == ("nonorientable", 1)


def test_selection_slot_rule():
    surgered = build_surgered_example()
    search = find_closed_surfaces(surgered.polyhedron, 100000)
    for selection in search.selections:
        for arc in surgered.polyhedron.arcs:
            slots = selection.arc_slots.get(arc.id, ())
            assert len(slots) in (0, 2)
            if arc.kind == "boundary":
                assert len(slots) == 0


def test_base_example_selections_are_six_spheres():
    born = build_base_example()
    search = find_closed_surfaces(born.polyhedron, 100000)
    assert len(search.selections) == 6
    assert all(s.orientable and s.euler == 2 for s in search.selections)


def test_surgered_example_contains_klein_bottle():
    born = build_surgered_example()
    search = find_closed_surfaces(born.polyhedron, 100000)
    special = [s for s in search.selections if not s.orientable]
    assert len(special) == 1
    klein = special[0]
    assert klein.euler == 0
    assert surface_orientability(born.polyhedron, klein) == ("nonorientable", 2)
    assert klein.sheets == frozenset(
        {"i_band", "i_floor", "o_band", "o_floor", "tube", "patch"})


def test_open_selection_rejected():
    theta = build_theta()
    with pytest.raises(SelectionNotClosed):
        make_selection(theta, {"w0"})


@pytest.mark.parametrize("check", [make_selection, surface_orientability,
                                   selection_is_closed, selection_euler,
                                   selection_orientable])
@pytest.mark.parametrize("sheets", [{"nope"}, {"w0", "nope"}])
def test_selection_naming_an_unknown_sheet_is_rejected(check, sheets):
    with pytest.raises(SelectionNotClosed, match=r"\['nope'\]"):
        check(build_theta(), sheets)


@pytest.mark.parametrize("check", [make_selection, surface_orientability])
def test_closed_but_disconnected_selection_rejected(check):
    # a sphere and a torus, both closed, with no arc between them
    p = SimplePolyhedron((SheetSpec("a", True, 0, ()),
                          SheetSpec("b", True, 1, ())), (), ())
    with pytest.raises(SelectionNotConnected,
                       match=r"selection \['a', 'b'\] is not connected"):
        check(p, {"a", "b"})
    assert [sorted(s.sheets) for s in find_closed_surfaces(p, 100).selections] \
        == [["a"], ["b"]]


def test_truncation_reported():
    born = build_base_example()
    search = find_closed_surfaces(born.polyhedron, 3)
    assert search.truncated


def test_selection_helpers_read_any_iterable_of_sheet_ids():
    # each helper reads the sheets more than once, so a one-shot iterator
    # must give what a list gives
    poly = build_base_example().polyhedron
    ids = sorted(s.id for s in poly.sheets)
    forms = (list, set, frozenset, tuple, iter, lambda c: (s for s in c))
    for r in range(1, 4):
        for combo in itertools.combinations(ids, r):
            for check in (selection_is_closed, selection_euler,
                          selection_orientable):
                want = check(poly, list(combo))
                assert all(check(poly, form(combo)) == want for form in forms)
    assert not selection_is_closed(poly, iter(["i_band"]))
    assert selection_euler(poly, iter(["i_cap"])) == 1


@pytest.mark.parametrize("search", [find_closed_surfaces, s3_obstruction,
                                    nonorientable_selections])
@pytest.mark.parametrize("bound", [0, -1, 2.5, 5.0, math.nan, math.inf,
                                   True, False, "5", None])
def test_bound_that_is_not_a_positive_integer_is_rejected(search, bound):
    poly = build_base_example().polyhedron
    with pytest.raises(ValueError, match="positive integer"):
        search(poly, bound)
    # also once the polyhedron keeps a walk that any bound would reuse
    find_closed_surfaces(poly, 10 ** 6)
    with pytest.raises(ValueError, match="positive integer"):
        search(poly, bound)


def test_swap_circle_selection_is_nonorientable():
    # a wing pair exchanged by the collar monodromy closes into a Klein
    # bottle; the third wing alone cannot close
    from spineforge.core import (SWAP, TRIPLE, BranchArc, SheetSpec,
                                 SimplePolyhedron, WingTraversal)
    arc = BranchArc("c0", TRIPLE, None, SWAP)
    mobius = SheetSpec("m", False, 1,
                       ((WingTraversal("c0", 1, 1), WingTraversal("c0", 2, 1)),))
    disk = SheetSpec("w", True, 0, ((WingTraversal("c0", 0, 1),),))
    poly = SimplePolyhedron((disk, mobius), (arc,), (), name="swap")
    search = find_closed_surfaces(poly, 1000)
    assert [tuple(sorted(s.sheets)) for s in search.selections] == [("m",)]
    selection = search.selections[0]
    assert not selection.orientable
    assert selection.euler == 0
    assert surface_orientability(poly, selection) == ("nonorientable", 2)


def test_search_matches_brute_force(rng):
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [random_round_map(rng, name=f"s{i}").polyhedron for i in range(20)]
    for poly in cases:
        expected = brute_force_selections(poly)
        search = find_closed_surfaces(poly, 10 ** 6)
        assert not search.truncated
        got = [s.sheets for s in search.selections]
        assert got == expected


def test_orientability_matches_exhaustive_enumeration(rng):
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [random_round_map(rng, name=f"o{i}").polyhedron for i in range(20)]
    for poly in cases:
        if len(poly.sheets) > 12:
            continue
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            assert selection.orientable == brute_force_orientable(
                poly, selection.sheets)


def tower(n):
    """The polyhedron of `tower_map(n)`: 2n-1 sheets, n(n-1)/2 closed
    selections."""
    return tower_map(n).polyhedron


def test_selections_come_in_order_of_size_then_of_sorted_sheet_ids(rng):
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [tower(n) for n in range(4, 33)]
    cases += [random_round_map(rng, name=f"q{i}").polyhedron
              for i in range(50)]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    for poly in cases:
        keys = [(len(s.sheets), s.key())
                for s in find_closed_surfaces(poly, 10 ** 6).selections]
        assert keys == sorted(set(keys))


def test_include_mask_order_is_size_then_sorted_positions(rng):
    # candidates are numbered in descending id order, and _annotated sorts
    # equal-size results by descending include mask, so the one holding the
    # smallest id two sets do not share comes first; sets on either side of
    # a byte boundary check masks wider than one byte
    for width in range(1, 26):
        n = rng.randint(8 * width - 7, 8 * width)
        # zero-padded, the ids sort as their numbers do
        ids = [f"s{i:03d}" for i in reversed(range(n))]
        stub = types.SimpleNamespace(_closed_index=_Index._make(
            [ids] + [None] * (len(_Index._fields) - 1)))
        edges = {0, n - 1}.union(*({8 * j - 1, 8 * j}
                                   for j in range(1, width)))
        sets = {frozenset(c) for k in (1, 2)
                for c in itertools.combinations(sorted(edges), k)}
        sets |= {frozenset(rng.sample(range(n), rng.randint(1, min(n, 5))))
                 for _ in range(200)}
        results = [(len(chosen), -sum(1 << i for i in chosen), True)
                   for chosen in sets]
        rng.shuffle(results)
        expected = sorted((tuple(sorted(ids[i] for i in chosen))
                           for chosen in sets), key=lambda t: (len(t), t))
        assert [s.key() for s in _annotated(stub, results)] == expected


def test_tower_search_tree_is_pinned():
    for n, examined, count in ((8, 74, 28), (16, 338, 120)):
        search = find_closed_surfaces(tower(n), 10 ** 6)
        assert (search.examined, len(search.selections)) == (examined, count)
        assert not search.truncated
        assert all(s.orientable for s in search.selections)


def test_tower_32_search_tree_is_pinned():
    search = find_closed_surfaces(tower(32), 10 ** 6)
    assert (search.examined, len(search.selections)) == (1485, 496)
    assert not search.truncated


def test_tower_64_search_tree_is_pinned():
    search = find_closed_surfaces(tower(64), 10 ** 6)
    assert (search.examined, len(search.selections)) == (4838, 2016)
    assert not search.truncated


def test_search_tree_is_pinned_beyond_towers():
    for poly, examined, count, nonorientable in (
            (build_theta(), 6, 3, 0),
            (build_base_example().polyhedron, 21, 6, 0),
            (build_surgered_example().polyhedron, 59, 13, 1)):
        search = find_closed_surfaces(poly, 10 ** 6)
        assert (search.examined, len(search.selections)) == (examined, count)
        assert not search.truncated
        assert sum(not s.orientable for s in search.selections) == nonorientable


def test_search_cut_at_every_bound_is_a_prefix_of_the_full_walk(rng):
    # the walk counts one state per include attempt and stops on the first
    # state past the bound, so a cut examines bound + 1 states and keeps
    # only selections the full walk also finds
    full_runs = [(poly, find_closed_surfaces(poly, 10 ** 6))
                 for poly in [born.polyhedron
                              for born in random_surgered_maps(rng, 60)]]
    cases = [(tower(6), find_closed_surfaces(tower(6), 10 ** 6)),
             # the most states among the first 8 maps (at least 20 at every
             # seed from 0 to 20), and the most states among all 60 with a
             # non-orientable selection (at least 27 at those seeds; the
             # first 8 maps may have none)
             max(full_runs[:8], key=lambda run: run[1].examined),
             max((run for run in full_runs
                  if not all(s.orientable for s in run[1].selections)),
                 key=lambda run: run[1].examined)]
    for poly, full in cases:
        assert full.examined > 10 and not full.truncated
        for bound in range(1, full.examined + 1):
            cut = find_closed_surfaces(poly, bound)
            assert cut.examined == min(bound + 1, full.examined)
            assert cut.truncated == (bound < full.examined)
            assert all(s in full.selections for s in cut.selections)
        assert cut.selections == full.selections


def test_search_annotation_matches_make_selection(rng):
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [random_round_map(rng, name=f"m{i}").polyhedron for i in range(20)]
    # surgered maps have open arcs, which bring in the vertex term of the
    # characteristic
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    cases += [tower(n) for n in range(4, 17)]
    open_arcs = 0
    for poly in cases:
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            assert make_selection(poly, selection.sheets) == selection
            open_arcs += any(not poly.arc(aid).closed
                             for aid in selection.arc_slots)
    assert open_arcs


def circuit_euler(poly, sheets):
    """Oracle for the characteristic of a closed selection, from the
    sheets' circuits and poly.arcs alone: the sheets' characteristics, less
    the open arcs their circuits run along, plus those arcs' end vertices."""
    total, along = 0, set()
    for sid in sheets:
        sheet = poly.sheet(sid)
        handles = 2 * sheet.genus if sheet.orientable else sheet.genus
        total += 2 - handles - len(sheet.circuits)
        along.update(t.arc for circuit in sheet.circuits for t in circuit)
    open_arcs = [arc for arc in poly.arcs
                 if arc.id in along and arc.endpoints is not None]
    ends = {vid for arc in open_arcs for vid, _ in arc.endpoints}
    return total - len(open_arcs) + len(ends)


def test_search_euler_matches_a_count_over_circuits(rng):
    # make_selection and the search annotate by one rule, so comparing the
    # two checks nothing of euler; this count does not go through it
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron,
             build_sphere_fixture().polyhedron, build_closed_sheet(0),
             build_closed_sheet(2, orientable=False)]
    cases += [parse_spoly(pathlib.Path(path).read_text())
              for path in sorted(glob.glob(repo_path("fixtures", "*.spoly")))]
    cases += [tower(n) for n in range(4, 17)]
    cases += [random_round_map(rng, name=f"e{i}").polyhedron
              for i in range(100)]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    checked, vertices = 0, 0
    for poly in cases:
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            assert selection.euler == circuit_euler(poly, selection.sheets)
            checked += 1
            vertices += any(not poly.arc(aid).closed
                            for aid in selection.arc_slots)
    # the vertex term is reached, not only closed circles
    assert checked > 1000 and vertices


def test_searched_selections_pickle_as_built_ones():
    poly = build_surgered_example().polyhedron
    for selection in find_closed_surfaces(tower(8), 10 ** 6).selections + \
            find_closed_surfaces(poly, 10 ** 6).selections:
        loaded = pickle.loads(pickle.dumps(selection))
        assert loaded == selection
        assert (loaded.arc_slots, loaded.euler) == \
            (selection.arc_slots, selection.euler)
        # the polyhedron it was derived from is not pickled with it
        assert loaded._poly is None


def test_repr_lists_sheets_sorted_however_they_were_built():
    # a searched selection builds its sheets from the include mask, and an
    # unpickled one from the pickled frozenset; both print them sorted
    polys = [build_surgered_example().polyhedron]
    polys += [born.polyhedron
              for born in random_surgered_maps(random.Random(7), 50)]
    count = 0
    for poly in polys:
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            loaded = pickle.loads(pickle.dumps(selection))
            assert repr(loaded) == repr(selection)
            sheets = ", ".join(map(repr, selection.key()))
            assert repr(selection).startswith(
                f"SurfaceSelection(sheets=frozenset({{{sheets}}}), ")
            count += 1
    assert count > 100


def scanned_arc_slots(poly, sheets):
    """arc id -> the sorted slots of the selected sheets' wings on it, from
    a scan of their circuits."""
    slots = {}
    for sid in sheets:
        for circuit in poly.sheet(sid).circuits:
            for trav in circuit:
                slots.setdefault(trav.arc, []).append(trav.slot)
    return {aid: tuple(sorted(found)) for aid, found in slots.items()}


def test_search_annotation_checks_closedness_of_every_subset():
    # the walk only yields closed selections; its annotation, derived on
    # the first read of arc_slots or euler, still checks, here against the
    # slow oracles on every subset of the candidates
    for poly in (build_theta(), tower(4), build_base_example().polyhedron):
        order = _index(poly).order
        kinds = set()
        for size in range(1, len(order) + 1):
            for chosen in itertools.combinations(range(len(order)), size):
                sheets = {order[i] for i in chosen}
                closed = selection_is_closed(poly, sheets)
                kinds.add(closed)
                mask = sum(1 << i for i in chosen)
                selection = next(_annotated(poly, [(size, -mask, True)]))
                if not closed:
                    for name in ("arc_slots", "euler"):
                        with pytest.raises(SelectionNotClosed):
                            getattr(selection, name)
                    continue
                assert selection.sheets == sheets
                assert selection.euler == selection_euler(poly, sheets)
                assert selection.arc_slots == scanned_arc_slots(poly, sheets)
        assert kinds == {True, False}


def test_tower_selections_are_spheres():
    # a tower's closed selections are the two-disk spheres and the disk
    # capped annulus chains, so every one is orientable with euler 2
    for n in (32, 64):
        search = find_closed_surfaces(tower(n), 10 ** 6)
        assert len(search.selections) == n * (n - 1) // 2
        assert all(s.orientable and s.euler == 2 and s.arc_slots
                   for s in search.selections)
    for n in range(4, 17):
        poly = tower(n)
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            assert selection.arc_slots == scanned_arc_slots(poly,
                                                            selection.sheets)


def test_unread_selection_matches_make_selection():
    for poly in (build_surgered_example().polyhedron, tower(8)):
        for selection, again in zip(
                find_closed_surfaces(poly, 10 ** 6).selections,
                find_closed_surfaces(poly, 10 ** 6).selections):
            # sheets, arc_slots and euler are not derived before their first
            # read, and sheets not with the other two
            for name in ("sheets", "arc_slots", "euler"):
                with pytest.raises(AttributeError):
                    object.__getattribute__(selection, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                selection.euler = 0
            assert type(again.euler) is int and type(again.arc_slots) is dict
            with pytest.raises(AttributeError):
                object.__getattribute__(again, "sheets")
            assert type(selection.sheets) is frozenset
            with pytest.raises(AttributeError):
                object.__getattribute__(selection, "euler")
            made = make_selection(poly, selection.sheets)
            assert repr(again) == repr(made)
            assert selection == made


def test_unread_selections_read_from_many_threads_agree():
    # each thread may derive a selection's sheets, arc_slots and euler;
    # every one must see the values a single reader sees
    poly = tower(16)
    expected = [(s.sheets, s.arc_slots, s.euler)
                for s in find_closed_surfaces(poly, 10 ** 6).selections]
    selections = find_closed_surfaces(poly, 10 ** 6).selections
    seen = [None] * 8

    def read(k):
        seen[k] = [(s.sheets, s.arc_slots, s.euler) for s in selections]

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 8


def test_witness_is_the_first_nonorientable_selection(rng):
    cases = [build_surgered_example().polyhedron]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    witnesses = 0
    for poly in cases:
        kind, witness, truncated = s3_obstruction(poly, 10 ** 6)
        first = next((s for s in find_closed_surfaces(poly, 10 ** 6).selections
                      if not s.orientable), None)
        assert not truncated
        assert witness == first
        assert kind == ("obstructed" if first else "not-obstructed")
        witnesses += witness is not None
    assert witnesses >= 2


def test_selections_span_the_mod_2_cycles(rng):
    # the components of a mod-2 2-cycle are connected closed selections and
    # there are no 3-cells, so an untruncated search's sheet vectors have
    # rank b2; z2_homology reaches b2 through the cellulation instead
    cases = [tower(n) for n in range(4, 17)]
    cases += [build_theta(), build_base_example().polyhedron,
              build_surgered_example().polyhedron]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    cases += [random_round_map(rng, name=f"h{i}").polyhedron
              for i in range(100)]
    ranks = set()
    for poly in cases:
        bit = {sheet.id: 1 << i for i, sheet in enumerate(poly.sheets)}
        search = find_closed_surfaces(poly, 10 ** 6)
        assert not search.truncated
        rank = gf2_rank([sum(map(bit.__getitem__, s.sheets))
                         for s in search.selections])
        assert rank == z2_homology(poly)[2]
        ranks.add(rank)
    assert 0 in ranks and max(ranks) > 3


def renamed(rng, poly):
    """`poly` with its sheet ids permuted at random, and the map back."""
    ids = [sheet.id for sheet in poly.sheets]
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    sheets = tuple(dataclasses.replace(sheet, id=new[sheet.id])
                   for sheet in poly.sheets)
    return (dataclasses.replace(poly, sheets=sheets),
            {to: old for old, to in new.items()})


def test_search_results_do_not_depend_on_sheet_names(rng):
    def described(search, back):
        return {(frozenset(map(back.get, s.sheets)),
                 tuple(sorted(s.arc_slots.items())), s.orientable, s.euler)
                for s in search.selections}

    as_built = tower(32)
    cases = [(as_built, 4), (build_surgered_example().polyhedron, 4)]
    cases += [(born.polyhedron, 1) for born in random_surgered_maps(rng, 20)]
    tower_states = find_closed_surfaces(as_built, 10 ** 6).examined
    witnesses = 0
    for poly, draws in cases:
        search = find_closed_surfaces(poly, 10 ** 6)
        expected = described(search, {s.id: s.id for s in poly.sheets})
        verdict = s3_obstruction(poly, 10 ** 6)
        smallest = [s.sheets for s in search.selections if not s.orientable]
        smallest = {s for s in smallest if len(s) == len(min(smallest, key=len))}
        for _ in range(draws):
            other, back = renamed(rng, poly)
            found = find_closed_surfaces(other, 10 ** 6)
            assert not found.truncated
            assert described(found, back) == expected
            assert len(found.selections) == len(search.selections)
            if poly is as_built:
                assert tower_states / 2 <= found.examined <= 2 * tower_states
            kind, witness, truncated = s3_obstruction(other, 10 ** 6)
            assert (kind, truncated) == verdict[::2]
            if witness is not None:
                assert frozenset(map(back.get, witness.sheets)) in smallest
                witnesses += 1
    assert witnesses >= 4


def searched(poly, bound, verdict_first):
    """What find_closed_surfaces and s3_obstruction give at `bound`, the
    search read in full, the verdict first or second."""
    def find():
        search = find_closed_surfaces(poly, bound)
        return (search.examined, search.truncated,
                [(s.key(), s.orientable, s.arc_slots, s.euler)
                 for s in search.selections])
    if verdict_first:
        verdict = s3_obstruction(poly, bound)
        return find(), verdict
    return find(), s3_obstruction(poly, bound)


def test_shared_search_gives_what_a_fresh_object_gives(rng):
    # a search whose bound did not cut it is kept on the polyhedron and
    # reused; a cut one is not, so every search on one object must give
    # what it gives on a copy that has searched nothing
    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron,
             build_sphere_fixture().polyhedron, build_closed_sheet(2),
             build_closed_sheet(1, orientable=False)]
    cases += [random_round_map(rng, name=f"k{i}").polyhedron
              for i in range(20)]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 60)]
    cases += [tower(n) for n in (4, 5, 8, 16, 32)]
    kinds = set()
    for poly in cases:
        for bounds in ((10 ** 6, 5, 17, 10 ** 6), (3, 10 ** 6)):
            shared = dataclasses.replace(poly)
            for step, bound in enumerate(bounds):
                got = searched(shared, bound, step % 2)
                fresh = searched(dataclasses.replace(poly), bound, False)
                assert got == fresh
                assert s3_obstruction(dataclasses.replace(poly), bound) \
                    == got[1]
                kinds.add((got[1][0], got[1][2]))
    assert kinds == {("obstructed", False), ("obstructed", True),
                     ("not-obstructed", False), ("not-obstructed", True)}


def test_searches_on_one_object_from_many_threads_agree():
    # threads that walk one polyhedron at once may each keep their walk;
    # every search must still give what it gives on a fresh object
    bounds = (5, 10 ** 6, 17, 10 ** 6, 3)
    for poly in (tower(12), build_surgered_example().polyhedron):
        expected = [searched(dataclasses.replace(poly), bound, False)
                    for bound in bounds]
        shared = dataclasses.replace(poly)
        seen = [None] * 8

        def search(k):
            seen[k] = [searched(shared, bound, k % 2) for bound in bounds]

        threads = [threading.Thread(target=search, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8


def test_cut_search_keeps_nothing():
    poly = tower(8)
    for search in (find_closed_surfaces, s3_obstruction):
        search(poly, 5)
        assert "_closed_walk" not in poly.__dict__
    full = find_closed_surfaces(poly, 10 ** 6)
    kept = poly.__dict__["_closed_walk"]
    assert kept[1] == full.examined and not full.truncated
    cut = find_closed_surfaces(poly, 5)
    assert (cut.examined, cut.truncated) == (6, True)
    assert find_closed_surfaces(poly, full.examined - 1).truncated
    # a bound the full walk fits in exactly reuses it
    assert find_closed_surfaces(poly, full.examined) == full
    assert poly.__dict__["_closed_walk"] is kept


def test_kept_walk_holds_only_ints():
    # a kept result is a selection's size, its include mask negated and
    # its orientability, not a tuple of positions
    polys = [tower(n) for n in range(4, 17)]
    polys.append(build_surgered_example().polyhedron)
    for poly in polys:
        search = find_closed_surfaces(poly, 10 ** 6)
        results, examined = poly.__dict__["_closed_walk"]
        assert examined == search.examined
        assert len(results) == len(search.selections) > 0
        for entry in results:
            assert type(entry) is tuple
            assert [type(x) for x in entry] == [int, int, bool]
            assert entry[0] == (-entry[1]).bit_count() > 0


def test_large_tower_truncates_instead_of_crashing():
    search = find_closed_surfaces(tower(600), 20000)
    assert search.truncated
    assert search.examined == 20001


def test_orientability_of_a_chain_longer_than_the_recursion_limit():
    n = 600
    poly = tower(n)
    # round_reeb names the inner disks s0..s{n-1} and the merged sheets
    # s{n}..s{2n-2}; the disks s0 and s{n-1} cap the chain of annuli
    # s{n}..s{2n-3} into a sphere
    sheets = frozenset(["s0", f"s{n - 1}"] + [f"s{n + i}" for i in range(n - 2)])
    # arcs listed from the middle outward and then inward, so the parity
    # union-find first grows one long chain and then looks up its deep end
    mid = n // 2
    poly = dataclasses.replace(poly, arcs=poly.arcs[mid:] + poly.arcs[mid - 1::-1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert selection_orientable(poly, sheets)
        assert make_selection(poly, sheets).orientable
    finally:
        sys.setrecursionlimit(limit)


def test_search_orientability_matches_union_find_oracle(rng):
    # the search signs sheets as it grows; selection_orientable's parity
    # union-find is the slow oracle for those signs
    cases = [born.polyhedron for born in random_surgered_maps(rng, 100)]
    cases += [random_round_map(rng, name=f"u{i}").polyhedron for i in range(20)]
    cases += [build_theta(), build_base_example().polyhedron,
              build_surgered_example().polyhedron,
              build_sphere_fixture().polyhedron, build_closed_sheet(2),
              build_closed_sheet(1, orientable=False)]
    kinds = set()
    for poly in cases:
        for selection in find_closed_surfaces(poly, 10 ** 6).selections:
            assert selection.orientable == selection_orientable(
                poly, selection.sheets)
            kinds.add(selection.orientable)
    assert kinds == {True, False}


def test_make_selection_counts_pieces_in_any_arc_order(rng):
    # make_selection learns connectedness and orientability from one parity
    # union-find pass, which must go on uniting after a sign contradiction:
    # with the arcs rotated, a non-orientable selection meets its
    # contradiction at another point of that pass
    cases = [build_surgered_example().polyhedron]
    cases += [born.polyhedron for born in random_surgered_maps(rng, 100)]
    checked = 0
    for poly in cases:
        found = [s for s in find_closed_surfaces(poly, 10 ** 6).selections
                 if not s.orientable]
        for turn in range(len(poly.arcs)):
            turned = dataclasses.replace(
                poly, arcs=poly.arcs[turn:] + poly.arcs[:turn])
            for selection in found:
                again = make_selection(turned, selection.sheets)
                assert (again.orientable, again.euler) == (False,
                                                          selection.euler)
                checked += 1
    assert checked


@pytest.mark.parametrize("direction, orientable", [(-1, True), (1, False)])
def test_sheet_with_both_wings_on_one_arc(direction, orientable):
    # an annulus whose two boundary circles both run along the triple circle
    # c0 closes into a torus when it runs along it in opposite directions and
    # into a Klein bottle otherwise; a disk fills the third slot
    from spineforge.core import (TRIPLE, TRIVIAL, BranchArc, SheetSpec,
                                 SimplePolyhedron, WingTraversal)
    arc = BranchArc("c0", TRIPLE, None, TRIVIAL)
    annulus = SheetSpec("a", True, 0, ((WingTraversal("c0", 1, 1),),
                                       (WingTraversal("c0", 2, direction),)))
    disk = SheetSpec("w", True, 0, ((WingTraversal("c0", 0, 1),),))
    poly = SimplePolyhedron((disk, annulus), (arc,), (), name="pinched")
    # seeded at a, the one include closes c0; seeded at w, c0 stays open
    # with no completer, since a has two wings on it
    search = find_closed_surfaces(poly, 1000)
    assert search.examined == 2
    assert [s.sheets for s in search.selections] == [frozenset({"a"})]
    selection = search.selections[0]
    assert selection.orientable is orientable
    assert selection_orientable(poly, selection.sheets) is orientable
    assert brute_force_orientable(poly, selection.sheets) is orientable
    assert selection.euler == 0


def test_sheet_with_three_wings_on_one_arc():
    # a pair of pants whose three boundary circles run along one triple
    # circle fills all of its slots: the arc always carries 0 or 3 selected
    # wings, so the seed's include, the one state, fails
    from spineforge.core import (TRIPLE, TRIVIAL, BranchArc, SheetSpec,
                                 SimplePolyhedron, WingTraversal)
    arc = BranchArc("c0", TRIPLE, None, TRIVIAL)
    pants = SheetSpec("p", True, 0, tuple((WingTraversal("c0", slot, d),)
                                          for slot, d in ((0, 1), (1, 1),
                                                          (2, -1))))
    poly = SimplePolyhedron((pants,), (arc,), (), name="pants")
    search = find_closed_surfaces(poly, 1000)
    assert (search.examined, search.selections) == (1, ())
    assert brute_force_selections(poly) == []
