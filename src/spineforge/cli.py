"""Command line front end.

Exit status: 0 success, 1 validation failure or obstruction-style negative
finding reported as failure, 2 parse, usage or file errors.  File emission
goes through a temporary file and an atomic rename.  ``main`` can be called
repeatedly in one process; the argument parser is built on the first call
and reused.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from dataclasses import replace

from . import formats
from .bornmap import validate_born_map
from .core import euler_characteristic, is_normal, validate_polyhedron
from .errors import ParseError, SpineForgeError
from .gallery import build_base_example, build_surgered_example, klein_plan
from .homology import z2_homology
from .obstruction import (DiskInP, build_graph, graph_to_dot, maximal_graph,
                          s3_obstruction)
from .render import render_svg
from .surgery import attach_surface, normalize_into_disk


class _FileAccessError(Exception):
    """A file named on the command line could not be read or written."""


class _InvalidInput(Exception):
    """An input failed validation; its report is printed and the status is 1."""


def _reason(exc):
    if isinstance(exc, UnicodeDecodeError):
        return (f"not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start})")
    return exc.strerror or str(exc)


def _read(path):
    """The text of `path`, less one leading byte-order mark.  Decoding is
    plain UTF-8, so the offset of a byte that does not decode counts the
    mark's bytes too."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileAccessError(f"cannot read {path}: {_reason(exc)}") from exc


def _write_atomic(path, text):
    """Write `text` to `path` through a new file beside it and a rename.  A
    new `path` gets the mode open(path, "w") would give it, 0o666 less the
    umask, and an existing one keeps its mode.  A symbolic link at `path`
    is written through, as open(path, "w") writes it: the new file goes
    beside the link's target and replaces the target."""
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    try:
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            mode = None
        tmp = os.path.join(directory,
                           f".tmp_spineforge_{os.urandom(8).hex()}")
        # created as open() creates a file, so the umask applies
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _FileAccessError(f"cannot write {path}: {_reason(exc)}") from exc
    return path


def _load_polyhedron(path):
    return formats.parse_spoly(_read(path))


def _with_arr(poly, arr_path):
    arr, data = formats.parse_arr(_read(arr_path))
    return formats.assemble_born_map(poly, arr, data)


def _valid_polyhedron(path):
    poly = _load_polyhedron(path)
    report = validate_polyhedron(poly)
    if not report.ok:
        raise _InvalidInput(report)
    return poly


def _write_pair(prefix, born):
    """Write `born` to prefix.spoly and prefix.arr; returns the two paths."""
    return (_write_atomic(prefix + ".spoly", formats.emit_spoly(born.polyhedron)),
            _write_atomic(prefix + ".arr", formats.emit_arr(born)))


def _load_born(spoly_path, arr_path):
    return _with_arr(_load_polyhedron(spoly_path), arr_path)


def _load_plan(plan_path):
    plan, (spoly_name, arr_name) = formats.parse_plan(_read(plan_path))
    root = os.path.dirname(os.path.abspath(plan_path))
    base = _load_born(os.path.join(root, spoly_name),
                      os.path.join(root, arr_name))
    return replace(plan, base=base)


def cmd_validate(args):
    poly = _load_polyhedron(args.spoly)
    report = validate_polyhedron(poly)
    print(f"polyhedron: {report}")
    ok = report.ok
    if ok:
        print(f"normal: {is_normal(poly)}")
    if args.arr:
        if not ok:
            return 1
        born = _with_arr(poly, args.arr)
        born_report = validate_born_map(born)
        print(f"born map: {born_report}")
        ok = ok and born_report.ok
    return 0 if ok else 1


def cmd_euler(args):
    print(euler_characteristic(_valid_polyhedron(args.spoly)))
    return 0


def cmd_homology(args):
    b0, b1, b2 = z2_homology(_valid_polyhedron(args.spoly))
    print(f"b0={b0} b1={b1} b2={b2}")
    return 0


def cmd_surgery(args):
    plan = _load_plan(args.plan)
    result = attach_surface(plan)
    spoly_path, arr_path = _write_pair(args.output, result)
    print(f"attached {plan.patch.id} along {len(plan.circles)} circles")
    print(f"characteristic: {euler_characteristic(result.polyhedron)}")
    print(f"wrote {spoly_path} {arr_path}")
    return 0


def cmd_normalize(args):
    plan = _load_plan(args.plan)
    spoly_path, arr_path = _write_pair(args.output, normalize_into_disk(plan))
    print(f"relocated {len(plan.circles)} circle images")
    print(f"wrote {spoly_path} {arr_path}")
    return 0


def cmd_obstruct(args):
    poly = _valid_polyhedron(args.spoly)
    verdict, witness, truncated = s3_obstruction(poly, args.bound)
    if truncated:
        print(f"search truncated at bound {args.bound}")
    if verdict == "obstructed":
        sheets = ",".join(sorted(witness.sheets))
        kind = "nonorientable"
        print(f"obstructed: closed {kind} subsurface [{sheets}] "
              f"chi={witness.euler}")
        print("no embedding into the 3-sphere or any mod-2 homology 3-sphere")
    elif truncated:
        print(f"undecided: no closed non-orientable subsurface within bound "
              f"{args.bound}")
    else:
        print("not obstructed by a closed non-orientable subsurface")
    return 0


def cmd_graph(args):
    plan = _load_plan(args.plan)
    born = plan.base
    disks = []
    for circle in plan.circles:
        sheets = tuple(sorted({seg.sheet for seg in circle.segments}))
        arcs = tuple((e.arc, e.slot_in, e.slot_out, False) for e in circle.events)
        disks.append(DiskInP(id=f"disk_{circle.id}", boundary_circle=circle.id,
                             sheets=sheets, arcs=arcs))
    graphs = [build_graph(born, d) for d in disks]
    paths = []
    for graph in graphs:
        path = f"{args.output}_{graph.disk}.dot"
        _write_atomic(path, graph_to_dot(graph))
        paths.append(path)
    index = maximal_graph(graphs)
    print(f"maximal graph: {'absent' if index is None else graphs[index].disk}")
    print("wrote " + " ".join(paths))
    return 0


def cmd_example(args):
    if args.which == "base":
        born = build_base_example()
        prefix = args.output or "roundmap"
    else:
        born = build_surgered_example()
        prefix = args.output or "surgered"
    written = list(_write_pair(prefix, born))
    if args.which == "base":
        plan_path = _write_atomic(
            prefix + "_klein.plan",
            formats.emit_plan(klein_plan(born), prefix + ".spoly",
                              prefix + ".arr"))
        written.append(plan_path)
    print("wrote " + " ".join(written))
    return 0


def cmd_render(args):
    born = _load_born(args.spoly, args.arr)
    svg = render_svg(born)
    _write_atomic(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def _positive_int(text):
    """A search bound: argparse reports anything else as a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser():
    """The ``spineforge`` argument parser, built once per process: parsing
    does not change it, and each ``parse_args`` call returns a new
    namespace."""
    parser = argparse.ArgumentParser(
        prog="spineforge",
        description="validators, surgeries and obstructions for normal "
                    "simple polyhedra carrying plane maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a .spoly (and .arr) pair")
    p.add_argument("spoly")
    p.add_argument("arr", nargs="?")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("euler", help="Euler characteristic")
    p.add_argument("spoly")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("homology", help="mod-2 Betti numbers")
    p.add_argument("spoly")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("surgery", help="attach the plan's patch")
    p.add_argument("plan")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("normalize", help="relocate circle images into a disk")
    p.add_argument("plan")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("obstruct", help="closed non-orientable subsurface search")
    p.add_argument("spoly")
    p.add_argument("--bound", type=_positive_int, default=100000)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("graph", help="incidence graphs of the plan's disks (DOT)")
    p.add_argument("plan")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("example", help="emit a gallery fixture")
    p.add_argument("which", choices=["base", "surgered"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("render", help="draw the map as SVG")
    p.add_argument("spoly")
    p.add_argument("arr")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    """Runs one command and returns its exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _FileAccessError as exc:
        print(exc, file=sys.stderr)
        return 2
    except _InvalidInput as exc:
        print(exc)
        return 1
    except SpineForgeError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
