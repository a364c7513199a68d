from spineforge.core import euler_characteristic
from spineforge.gallery import (build_base_example, build_closed_sheet,
                                build_sphere_fixture, build_surgered_example,
                                build_theta)
from spineforge.homology import cellulate, gf2_rank, z2_homology

from randgen import random_crossing_plan, random_interior_plan, random_round_map


# -- independent oracle: simplicial mod-2 homology over explicit simplex
# lists, sharing no code with the cellulation path -------------------------

def simplicial_z2(vertices, edges, triangles):
    def rank(rows, width):
        mat = [row[:] for row in rows]
        rank = 0
        col = 0
        nrows = len(mat)
        for col in range(width):
            pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            for r in range(nrows):
                if r != rank and mat[r][col]:
                    mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    vindex = {v: i for i, v in enumerate(vertices)}
    eindex = {frozenset(e): i for i, e in enumerate(edges)}
    d1 = []
    for e in edges:
        row = [0] * len(vertices)
        for v in e:
            row[vindex[v]] ^= 1
        d1.append(row)
    d2 = []
    for t in triangles:
        row = [0] * len(edges)
        a, b, c = t
        for e in (frozenset((a, b)), frozenset((b, c)), frozenset((a, c))):
            row[eindex[e]] ^= 1
        d2.append(row)
    r1 = rank(d1, len(vertices))
    r2 = rank(d2, len(edges))
    b0 = len(vertices) - r1
    b1 = len(edges) - r1 - r2
    b2 = len(triangles) - r2
    return (b0, b1, b2)


def theta_triangulation():
    """Three disks coned over a 3-vertex circle."""
    vertices = ["a", "b", "c", "x0", "x1", "x2"]
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    triangles = []
    for apex in ("x0", "x1", "x2"):
        for e in [("a", "b"), ("b", "c"), ("a", "c")]:
            edges.append((apex, e[0])) if (apex, e[0]) not in edges else None
            triangles.append((apex, e[0], e[1]))
    edges = [("a", "b"), ("b", "c"), ("a", "c")] + [
        (apex, v) for apex in ("x0", "x1", "x2") for v in ("a", "b", "c")]
    return vertices, edges, triangles


# frozen expected values, computed with the oracle above
THETA_Z2 = simplicial_z2(*theta_triangulation())


def test_theta_oracle_value():
    assert THETA_Z2 == (1, 0, 2)


def test_theta_homology_matches_oracle():
    assert z2_homology(build_theta()) == THETA_Z2


def test_theta_euler():
    theta = build_theta()
    assert euler_characteristic(theta) == 3
    assert cellulate(theta).euler == 3


def test_closed_surfaces_homology():
    for genus in range(4):
        poly = build_closed_sheet(genus)
        assert z2_homology(poly) == (1, 2 * genus, 1)
    # crosscap surfaces: b1 equals the crosscap count mod 2
    for crosscaps in range(1, 4):
        poly = build_closed_sheet(crosscaps, orientable=False)
        assert z2_homology(poly) == (1, crosscaps, 1)


def test_sphere_fixture_homology():
    born = build_sphere_fixture()
    # one disk sheet over a boundary circle is a disk, not a sphere
    assert z2_homology(born.polyhedron) == (1, 0, 0)
    assert euler_characteristic(born.polyhedron) == 1


def test_single_disk_cell_count():
    born = build_sphere_fixture()
    complex_ = cellulate(born.polyhedron)
    c0, c1, c2 = complex_.counts
    assert c0 - c1 + c2 == 1


def test_base_example_euler_is_four():
    # 4 disk sheets, 5 annuli, all branch circles closed
    born = build_base_example()
    assert euler_characteristic(born.polyhedron) == 4
    assert cellulate(born.polyhedron).euler == 4
    assert z2_homology(born.polyhedron) == (1, 0, 3)


def test_surgered_example_keeps_euler():
    born = build_surgered_example()
    assert euler_characteristic(born.polyhedron) == 4


def test_closed_unions_span_the_mod2_cycle_space(rng):
    # unions of sheets with even wing degree on every arc are exactly the
    # nonzero mod-2 2-cycles, so their number is 2^b2 - 1
    import itertools

    from randgen import random_round_map as _rrm

    cases = [build_theta(), build_base_example().polyhedron,
             build_surgered_example().polyhedron]
    cases += [_rrm(rng, name=f"cyc{i}").polyhedron for i in range(10)]
    for poly in cases:
        if len(poly.sheets) > 14:
            continue
        sheets = [s.id for s in poly.sheets]
        table = {}
        for s in poly.sheets:
            for c in s.circuits:
                for t in c:
                    table.setdefault(t.arc, []).append(s.id)
        closed = 0
        for r in range(1, len(sheets) + 1):
            for combo in itertools.combinations(sheets, r):
                chosen = set(combo)
                good = True
                for arc in poly.arcs:
                    n = sum(1 for sid in table.get(arc.id, []) if sid in chosen)
                    limit = (0,) if arc.kind == "boundary" else (0, 2)
                    if n not in limit:
                        good = False
                        break
                closed += good
        _b0, _b1, b2 = z2_homology(poly)
        assert closed == 2 ** b2 - 1


def test_euler_agrees_with_cellulation_on_random_samples(rng):
    from spineforge.surgery import attach_surface
    for trial in range(200):
        born = random_round_map(rng, name=f"h{trial}")
        poly = born.polyhedron
        if trial % 3 == 0:
            plan = random_crossing_plan(rng, born) or \
                random_interior_plan(rng, born)
            poly = attach_surface(plan).polyhedron
        chi = euler_characteristic(poly)
        assert cellulate(poly).euler == chi
        b0, b1, b2 = z2_homology(poly)
        assert b0 - b1 + b2 == chi


def test_gf2_rank_matches_the_size_of_the_row_span(rng):
    # independent oracle: enumerate the row span; its size is 2 ** rank
    kinds = set()
    for _ in range(500):
        width = rng.randint(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 10))]
        span = {0}
        for row in rows:
            span |= {vector ^ row for vector in span}
        rank = gf2_rank(rows)
        assert 2 ** rank == len(span)
        kinds.add(rank == len(rows))
    assert kinds == {True, False}
