"""Seeded inputs, operations and oracles of the three benchmark workloads.

Every workload is built from a seed into fixed inputs, then run as passes:
one pass performs every operation once, in order, in this process (a closed
loop with one caller).  `run_op(i)` times each pipeline call of operation
`i` and returns an `OpResult`; `check(i, result)` runs the oracles after
the clock stops and raises `OracleMismatch`.  The oracles come from the
mathematics of the inputs or from committed fixtures, never from a second
call of the code under test.

Calls go through module attributes (`sf.x`, `formats.x`, `cli.main`) so
that the traced run, which rebinds those attributes, sees them.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import spineforge as sf
from spineforge import cli, formats, gallery, render

import randgen

SEARCH_BOUND = 10 ** 6
# Random plans vary in cost (per-plan coefficient of variation about 0.7),
# so a pass needs many of them for its total to depend little on the seed:
# at 1000 the quartile spread of the pass time across seeds is about 3%.
# Plans come from one generator stream, so the first 200 of a seed are the
# same at any count.
PLAN_COUNT = 1000


class OracleMismatch(Exception):
    """An operation's output disagrees with the workload's oracle."""


@dataclass
class OpResult:
    laps: list                # seconds of each pipeline call, in order
    verdict: tuple            # indices of the laps that reach the S3 verdict
    outputs: dict             # what the oracles check
    # from the operation's own find_closed_surfaces call
    counts: dict = field(default_factory=dict)


class Laps:
    """Times each call made through it; `laps` lists the seconds."""

    def __init__(self):
        self.laps = []

    def __call__(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.laps.append(time.perf_counter() - start)
        return result


def _search_counts(search):
    return {"examined": search.examined,
            "selections": len(search.selections),
            "truncated": int(search.truncated)}


def _expect(what, got, want):
    if got != want:
        raise OracleMismatch(f"{what}: got {got!r}, expected {want!r}")


def tower_map(n):
    """round_reeb of n concentric circles, boundary outermost: 2n-1 sheets."""
    circles = tuple(
        gallery.RoundCircle("boundary" if k == 0 else "triple", k + 1, k,
                            pos=0)
        for k in reversed(range(n)))
    return gallery.round_reeb(gallery.RoundSpec(circles, name=f"tower{n}"))


class Tower:
    """Closed-surface search worst case: no non-orientable selection, so
    the search can never stop early and `subsurfaces` does nearly all the
    work.  The seed only orders the sizes within a pass."""


    def __init__(self, seed, smoke, plant):
        self.sizes = [4, 8] if smoke else [8, 16, 32, 64]
        random.Random(seed).shuffle(self.sizes)
        self.maps = [tower_map(n).polyhedron for n in self.sizes]
        # measured on n = 4, 8, 16, 32, 64: chi = n, (b0, b1, b2) =
        # (1, 0, n-1), n(n-1)/2 selections, all orientable
        self.expected_chi = {n: n + (1 if plant and i == 0 else 0)
                             for i, n in enumerate(self.sizes)}

    def __len__(self):
        return len(self.maps)

    def label(self, i):
        return f"n={self.sizes[i]}"

    def input_texts(self):
        return [formats.emit_spoly(p) for p in self.maps]

    def close(self):
        pass

    def run_op(self, i):
        timed = Laps()
        text = timed(formats.emit_spoly, self.maps[i])
        parsed = timed(formats.parse_spoly, text)
        report = timed(sf.validate_polyhedron, parsed)
        betti = timed(sf.z2_homology, parsed)
        search = timed(sf.find_closed_surfaces, parsed, SEARCH_BOUND)
        verdict = timed(sf.s3_obstruction, parsed, SEARCH_BOUND)
        return OpResult(timed.laps, (1, 2, 5),
                        dict(parsed=parsed, report=report, betti=betti,
                             search=search, verdict=verdict),
                        _search_counts(search))

    def check(self, i, result):
        n, out = self.sizes[i], result.outputs
        search = out["search"]
        _expect(f"n={n} validate", out["report"].ok, True)
        _expect(f"n={n} chi", sf.euler_characteristic(out["parsed"]),
                self.expected_chi[n])
        _expect(f"n={n} z2_homology", out["betti"], (1, 0, n - 1))
        _expect(f"n={n} selections", len(search.selections), n * (n - 1) // 2)
        _expect(f"n={n} all orientable",
                all(s.orientable for s in search.selections), True)
        _expect(f"n={n} search truncated", search.truncated, False)
        _expect(f"n={n} verdict", out["verdict"],
                ("not-obstructed", None, False))


class Plans:
    """Many small, varied surgeries: surgery, repeated validation and the
    in-memory formats dominate; a quarter of the outputs are obstructed (50
    of the first 200 at seed 7), so the search's early exit applies to
    them."""


    def __init__(self, seed, smoke, plant):
        rng = random.Random(seed)
        self.plans = []
        for i in range(10 if smoke else PLAN_COUNT):
            born = randgen.random_round_map(rng, name=f"p{i}")
            plan = randgen.random_crossing_plan(rng, born) \
                if rng.random() < 0.5 else None
            self.plans.append(plan or randgen.random_interior_plan(rng, born))
        self.base_chi = [sf.euler_characteristic(p.base.polyhedron)
                         + (1 if plant and i == 0 else 0)
                         for i, p in enumerate(self.plans)]

    def __len__(self):
        return len(self.plans)

    def label(self, i):
        return f"plan {i}"

    def input_texts(self):
        for plan in self.plans:
            yield formats.emit_spoly(plan.base.polyhedron)
            yield formats.emit_arr(plan.base)
            yield formats.emit_plan(plan)

    def close(self):
        pass

    def run_op(self, i):
        plan = self.plans[i]
        timed = Laps()
        hypotheses = timed(sf.check_attachment_hypotheses, plan)
        out = timed(sf.attach_surface, plan)
        poly = out.polyhedron
        poly_report = timed(sf.validate_polyhedron, poly)
        born_report = timed(sf.validate_born_map, out)
        chi = timed(sf.euler_characteristic, poly)
        betti = timed(sf.z2_homology, poly)
        verdict = timed(sf.s3_obstruction, poly, SEARCH_BOUND)
        search = timed(sf.find_closed_surfaces, poly, SEARCH_BOUND)
        spoly = timed(formats.emit_spoly, poly)
        arr_text = timed(formats.emit_arr, out)
        parsed = timed(formats.parse_spoly, spoly)
        arr, data = timed(formats.parse_arr, arr_text)
        reborn = timed(formats.assemble_born_map, parsed, arr, data)
        timed(render.render_svg, out)
        return OpResult(timed.laps, (2, 6, 10),
                        dict(hypotheses=hypotheses, out=out,
                             poly_report=poly_report, born_report=born_report,
                             chi=chi, betti=betti, verdict=verdict,
                             search=search, spoly=spoly, arr=arr_text,
                             parsed=parsed, reborn=reborn),
                        _search_counts(search))

    def check(self, i, result):
        out = result.outputs
        chi, (b0, b1, b2) = out["chi"], out["betti"]
        _expect("hypotheses", out["hypotheses"].ok, True)
        _expect("validate_polyhedron", out["poly_report"].ok, True)
        _expect("validate_born_map", out["born_report"].ok, True)
        _expect("chi(out) = chi(base) + chi(patch)", chi,
                self.base_chi[i] + self.plans[i].patch.euler)
        _expect("b0 - b1 + b2 = chi", b0 - b1 + b2, chi)
        nonorientable = any(not s.orientable for s in out["search"].selections)
        _expect("obstructed iff a non-orientable selection",
                out["verdict"][0] == "obstructed", nonorientable)
        _expect("parse(emit(out)) == out", out["reborn"] == out["out"], True)
        _expect("re-emitted .spoly", formats.emit_spoly(out["parsed"]),
                out["spoly"])
        _expect("re-emitted .arr", formats.emit_arr(out["reborn"]), out["arr"])


# The README's command sequence, run in the work directory.
KLEIN_ARGVS = (
    ("example", "base", "-o", "roundmap"),
    ("validate", "roundmap.spoly", "roundmap.arr"),
    ("euler", "roundmap.spoly"),
    ("homology", "roundmap.spoly"),
    ("surgery", "roundmap_klein.plan", "-o", "surgered"),
    ("obstruct", "surgered.spoly"),
    ("graph", "roundmap_klein.plan", "-o", "g"),
    ("render", "roundmap.spoly", "roundmap.arr", "-o", "map.svg"),
    ("normalize", "relocation.plan", "-o", "relocated"),
)
OBSTRUCT = [argv[0] for argv in KLEIN_ARGVS].index("obstruct")


class KleinCli:
    """The documented user journey through `spineforge.cli.main`: files
    read and written atomically, argparse on every command, and a search
    that exits early on the Klein bottle.  The seed does not change it."""


    def __init__(self, smoke, plant, workdir, root):
        self.count = 2 if smoke else 200
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.plan_text = formats.emit_plan(
            gallery.relocation_plan(), "roundmap.spoly", "roundmap.arr")
        with open(os.path.join(workdir, "relocation.plan"), "w") as handle:
            handle.write(self.plan_text)
        self.expected = {}
        for suffix in ("spoly", "arr"):
            with open(os.path.join(root, "fixtures", "surgered." + suffix),
                      "rb") as handle:
                self.expected[suffix] = handle.read()
        if plant:
            self.expected["spoly"] += b"\n"

    def __len__(self):
        return self.count

    def label(self, i):
        return f"sequence {i}"

    def input_texts(self):
        return [self.plan_text, repr(KLEIN_ARGVS),
                self.expected["spoly"].decode(), self.expected["arr"].decode()]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_op(self, i):
        here = os.getcwd()
        commands = {}
        timed = Laps()
        os.chdir(self.workdir)
        try:
            for argv in KLEIN_ARGVS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    status = timed(cli.main, list(argv))
                commands[argv[0]] = (status, out.getvalue(), err.getvalue())
        finally:
            os.chdir(here)
        return OpResult(timed.laps, (OBSTRUCT,), commands)

    def check(self, i, result):
        commands = result.outputs
        for command, (status, _, err) in commands.items():
            _expect(f"{command} exit status ({err.strip()})", status, 0)
        _expect("homology output", commands["homology"][1].strip(),
                "b0=1 b1=0 b2=3")
        obstruct = commands["obstruct"][1]
        _expect("obstruct verdict", obstruct.startswith("obstructed")
                and "chi=0" in obstruct, True)
        for suffix in ("spoly", "arr"):
            with open(os.path.join(self.workdir, "surgered." + suffix),
                      "rb") as handle:
                _expect(f"surgered.{suffix} matches the fixture",
                        handle.read() == self.expected[suffix], True)


def build(name, seed, smoke, plant, root, workdir):
    """The workload's inputs, ready to run."""
    if name == "tower":
        return Tower(seed, smoke, plant)
    if name == "plans":
        return Plans(seed, smoke, plant)
    if name == "klein-cli":
        return KleinCli(smoke, plant, workdir, root)
    raise ValueError(f"unknown workload {name!r}")


def fingerprint(workload):
    """sha256 over the emitted input texts: it changes when the generators
    in gallery or tests/randgen.py drift, not when only speed does."""
    digest = hashlib.sha256()
    for text in workload.input_texts():
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]
