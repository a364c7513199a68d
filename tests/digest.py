"""One hash per family of engine outputs over a fixed, seeded corpus.

    PYTHONHASHSEED=0 python tests/digest.py [--root TREE]

The package under test is imported from TREE/src (default: the checkout
this script lives in).  The corpus is built by this script, the
`randgen.py` beside it and the `fixtures/` of its own checkout, so that
running one copy of the script with `--root` on two trees gives inputs
that differ only by what the two packages compute from them.  Equal
totals mean equal outputs on every case.

Families and what each case contributes:

* towers      -- round maps of n concentric circles, n = 4..64
* gallery     -- the gallery's maps, polyhedra and plans
* fixtures    -- the committed .spoly/.arr pairs and klein.plan
* round       -- 100 random round maps (seed 7)
* surgered    -- 200 random surgery outputs (seed 7)
* plans       -- 1200 random surgery plans on random round maps (seed 7)
* iterated    -- 40 runs of 5 surgeries in turn, each on the last output,
                 from towers of 3..8 circles (seeds 0..39)

A polyhedron contributes its validation report, and when valid its
characteristic, `z2_homology`, emitted .spoly text, the closed-surface
search at bound 10**6 (`examined`, `truncated` and each selection's
`key()`, `orientable`, `arc_slots` in order and `euler`) and
`s3_obstruction` at bounds 10**6, 5 and 17, both on the searched object
and on a fresh copy.  A born map adds its validation report and emitted
.arr text.  A plan contributes its `check_attachment_hypotheses` report
and then the born map `attach_surface` makes, or the code of the error
it raises.  An iterated run contributes the born map of each step, and
the code of the error that ends it early, if one does.
"""

import argparse
import dataclasses
import hashlib
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BOUNDS = (10 ** 6, 5, 17)


def selection_record(sel):
    if sel is None:
        return None
    return (sel.key(), sel.orientable, list(sel.arc_slots.items()), sel.euler)


def polyhedron_record(poly):
    from spineforge import (euler_characteristic, find_closed_surfaces,
                            formats, s3_obstruction, validate_polyhedron,
                            z2_homology)
    report = validate_polyhedron(poly)
    if not report.ok:
        return [str(report)]
    search = find_closed_surfaces(poly, BOUNDS[0])
    out = [str(report), euler_characteristic(poly), z2_homology(poly),
           formats.emit_spoly(poly), search.examined, search.truncated,
           [selection_record(s) for s in search.selections]]
    for target in (poly, dataclasses.replace(poly)):
        for bound in BOUNDS:
            verdict, witness, truncated = s3_obstruction(target, bound)
            out.append((verdict, selection_record(witness), truncated))
    return out


def born_record(born):
    from spineforge import formats, validate_born_map
    report = validate_born_map(born)
    out = [str(report)] + polyhedron_record(born.polyhedron)
    if report.ok:
        out.append(formats.emit_arr(born))
    return out


def plan_record(plan):
    from spineforge import attach_surface, check_attachment_hypotheses
    from spineforge.errors import SpineForgeError
    out = [str(check_attachment_hypotheses(plan))]
    try:
        born = attach_surface(plan)
    except SpineForgeError as exc:
        return out + [type(exc).__name__, getattr(exc, "code", None)]
    return out + born_record(born)


def towers():
    from randgen import tower_map
    for n in range(4, 65):
        yield born_record(tower_map(n))


def gallery():
    from spineforge import gallery as g
    for build in (g.build_base_example, g.build_surgered_example,
                  g.build_sphere_fixture):
        yield born_record(build())
    yield polyhedron_record(g.build_theta())
    for genus, orientable in ((0, True), (1, True), (2, True), (1, False),
                              (2, False)):
        yield polyhedron_record(g.build_closed_sheet(genus, orientable))
    for make in (g.klein_plan, g.relocation_plan):
        yield plan_record(make())


def fixtures():
    from spineforge.cli import _load_born, _load_plan
    root = os.path.join(HERE, "..", "fixtures")
    for stem in ("roundmap", "surgered", "crossed", "crossed_twice"):
        path = os.path.join(root, stem)
        yield born_record(_load_born(path + ".spoly", path + ".arr"))
    yield plan_record(_load_plan(os.path.join(root, "klein.plan")))


def round_maps():
    from randgen import random_round_map
    rng = random.Random(7)
    for i in range(100):
        yield born_record(random_round_map(rng, name=f"round{i}"))


def surgered_maps():
    from randgen import random_surgered_maps
    for born in random_surgered_maps(random.Random(7), 200):
        yield born_record(born)


def plans():
    from randgen import (random_crossing_plan, random_interior_plan,
                         random_round_map)
    rng = random.Random(7)
    for trial in range(1200):
        born = random_round_map(rng, name=f"base{trial}")
        plan = (random_crossing_plan(rng, born) if trial % 2 else None) \
            or random_interior_plan(rng, born)
        yield plan_record(plan)


def iterated():
    from randgen import random_iterated_map, tower_map
    from spineforge.errors import SpineForgeError
    for seed in range(40):
        rng = random.Random(seed)
        try:
            for _, born in random_iterated_map(rng, tower_map(rng.randint(3, 8)), 5):
                yield born_record(born)
        except SpineForgeError as exc:
            yield [type(exc).__name__, getattr(exc, "code", None)]


FAMILIES = (("towers", towers), ("gallery", gallery), ("fixtures", fixtures),
            ("round", round_maps), ("surgered", surgered_maps),
            ("plans", plans), ("iterated", iterated))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(HERE, ".."),
                        help="tree whose src/ is tested (default: this one)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(os.path.abspath(args.root), "src"), HERE]
    import spineforge
    print(f"testing {os.path.dirname(spineforge.__file__)}", file=sys.stderr)
    total = hashlib.sha256()
    for name, family in FAMILIES:
        h = hashlib.sha256()
        cases = 0
        for record in family():
            h.update(repr(record).encode())
            h.update(b"\n")
            cases += 1
        print(f"{name:9} {h.hexdigest()[:16]}  {cases} cases")
        total.update(f"{name} {h.hexdigest()}\n".encode())
    print(f"{'total':9} {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
