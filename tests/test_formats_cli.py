import os
import re
import shutil
import stat
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from spineforge import formats
from spineforge.bornmap import validate_born_map
from spineforge.cli import build_parser, main
from spineforge.core import WingTraversal
from spineforge.errors import EmitError, SpineForgeError
from spineforge.gallery import (build_base_example, build_surgered_example,
                                build_theta, klein_plan, relocation_plan)
from spineforge.render import render_svg
from spineforge.surgery import ImageRoute, attach_surface

from conftest import repo_path


def roundtrip_maps(rng):
    """The surgered example, random round maps and random surgery outputs."""
    from randgen import random_round_map, random_surgered_maps
    return ([build_surgered_example()]
            + [random_round_map(rng, name=f"t{i}") for i in range(100)]
            + random_surgered_maps(rng, 100))


def test_spoly_roundtrip(rng):
    for born in roundtrip_maps(rng):
        poly = born.polyhedron
        assert formats.parse_spoly(formats.emit_spoly(poly)) == poly


def test_arr_roundtrip(rng):
    for born in roundtrip_maps(rng):
        arr, data = formats.parse_arr(formats.emit_arr(born))
        assert arr == born.arrangement
        assert formats.assemble_born_map(born.polyhedron, arr, data) == born


def test_empty_names_roundtrip():
    # an empty name is written as the bare keyword, not as a placeholder
    born = replace(build_base_example(), name="")
    poly = replace(build_theta(), name="")
    plan = replace(relocation_plan(), name="")
    assert formats.emit_spoly(poly).startswith("POLY\n")
    assert formats.parse_spoly(formats.emit_spoly(poly)) == poly
    arr, data = formats.parse_arr(formats.emit_arr(born))
    assert formats.assemble_born_map(born.polyhedron, arr, data) == born
    assert formats.emit_plan(plan).startswith("PLAN\n")
    parsed, _ = formats.parse_plan(formats.emit_plan(plan))
    assert replace(parsed, base=None) == replace(plan, base=None)


@pytest.mark.parametrize("parse, record", [
    (formats.parse_spoly, "POLY a b"),
    (formats.parse_arr, "NAME a b"),
    (formats.parse_plan, "PLAN a b"),
])
def test_name_of_two_tokens_is_a_parse_error(parse, record):
    # the second token would otherwise be dropped without a trace
    with pytest.raises(formats.ParseError,
                       match=f"^line 1: bad {record.split()[0]} record$"):
        parse(record + "\n")


def theta_with_arc(arc_id, **change):
    """build_theta() with its one arc named `arc_id`."""
    theta = build_theta()
    sheets = tuple(replace(sheet, circuits=tuple(
        tuple(replace(trav, arc=arc_id) for trav in circuit)
        for circuit in sheet.circuits)) for sheet in theta.sheets)
    return replace(theta, sheets=sheets,
                   arcs=(replace(theta.arcs[0], id=arc_id),), **change)


def with_first(value, field, **change):
    """`value` with the first entry of its tuple `field` changed."""
    items = getattr(value, field)
    return replace(value, **{field: (replace(items[0], **change),)
                             + items[1:]})


def with_witness(plan, nesting):
    return replace(plan, witness=replace(plan.witness, nesting=nesting))


def with_route_edge(plan, eid):
    """`plan` with its first circle's image a route crossing edge `eid`."""
    image = ImageRoute(((eid, Fraction(1, 2)),), (("r1", None),))
    return with_first(plan, "circles", image=image)


def with_first_record(born, field, **change):
    """`born` with the first entry of its arrangement's `field` changed."""
    return replace(born, arrangement=with_first(born.arrangement, field,
                                                **change))


def with_assignment(born, key, **change):
    """`born` with the strand assignment of `key` changed."""
    changed = replace(born.assignments[key], **change)
    return replace(born, assignments={**born.assignments, key: changed})


UNWRITABLE = [
    ("spoly name #", lambda: formats.emit_spoly(replace(build_theta(),
                                                        name="a#b")),
     "polyhedron name 'a#b': it holds '#'"),
    ("spoly name space", lambda: formats.emit_spoly(replace(build_theta(),
                                                            name="a b")),
     "polyhedron name 'a b': it holds whitespace"),
    ("sheet id space", lambda: formats.emit_spoly(
        with_first(build_theta(), "sheets", id="w 0")),
     "sheet id 'w 0': it holds whitespace"),
    ("empty sheet id", lambda: formats.emit_spoly(
        with_first(build_theta(), "sheets", id="")),
     "sheet id '': it is empty"),
    ("arc id tab", lambda: formats.emit_spoly(theta_with_arc("c\t0")),
     "arc id 'c\\t0': it holds whitespace"),
    ("vertex id #", lambda: formats.emit_spoly(with_first(
        build_theta(), "arcs", endpoints=(("v#0", 0), ("v1", 1)))),
     "vertex id 'v#0': it holds '#'"),
    ("arr name space", lambda: formats.emit_arr(
        replace(build_base_example(), name="x y")),
     "map name 'x y': it holds whitespace"),
    ("face label #", lambda: formats.emit_arr(with_first_record(
        build_base_example(), "faces", label="r#1")),
     "face label 'r#1': it holds '#'"),
    ("source kind colon", lambda: formats.emit_arr(with_first_record(
        build_base_example(), "curves", source=("bra:nch", "c1"))),
     "curve source kind 'bra:nch': it holds ':'"),
    ("curve edge draw", lambda: formats.emit_arr(with_first_record(
        build_base_example(), "curves", edges=("draw",))),
     "edge id 'draw' of curve 'im_c1'"),
    ("circle id space", lambda: formats.emit_plan(with_first(
        relocation_plan(), "circles", id="outer cut")),
     "circle id 'outer cut': it holds whitespace"),
    ("witness parent colon", lambda: formats.emit_plan(with_witness(
        relocation_plan(), (("outer_cut", None, 1), ("inner", "a:b", -1)))),
     "witness parent 'a:b': it holds ':'"),
    ("witness parent dash", lambda: formats.emit_plan(with_witness(
        relocation_plan(), (("outer_cut", None, 1), ("inner", "-", -1)))),
     "witness parent '-'"),
    ("route edge @", lambda: formats.emit_plan(
        with_route_edge(relocation_plan(), "e@1")),
     "edge id 'e@1': it holds '@'"),
    ("base file space", lambda: formats.emit_plan(relocation_plan(),
                                                  "my base.spoly"),
     "base file name 'my base.spoly': it holds whitespace"),
    # `dir` reads + or -, `heavy` and wing sides L or R
    ("direction 0", lambda: formats.emit_arr(with_assignment(
        build_base_example(), "c1", direction=0)),
     "direction 0: it is neither +1 nor -1"),
    ("heavy X", lambda: formats.emit_arr(with_assignment(
        build_base_example(), "c1", heavy="X")),
     "heavy side 'X': it is neither L nor R"),
    ("heavy L R", lambda: formats.emit_arr(with_assignment(
        build_base_example(), "c1", heavy="L R")),
     "heavy side 'L R': it is neither L nor R"),
    ("wing side L R", lambda: formats.emit_arr(with_assignment(
        build_base_example(), "c1", wing_sides=((("c1", 0), "L R"),))),
     "wing side 'L R': it is neither L nor R"),
]


@pytest.mark.parametrize("emit, message", [case[1:] for case in UNWRITABLE],
                         ids=[case[0] for case in UNWRITABLE])
def test_value_that_would_not_read_back_is_an_emit_error(emit, message):
    # such a value used to be written as it is, and read back as another
    # value or as a parse error
    with pytest.raises(EmitError, match=f"^cannot write {re.escape(message)}"):
        emit()


def test_values_that_read_back_are_written():
    # a colon in the first field of a token reads back, since the parsers
    # split such a token at its last colons; a source label keeps its colons
    for poly in (theta_with_arc("c:0", name="théta-1.b+c<2"),
                 with_first(build_theta(), "sheets", id="w:0")):
        assert formats.parse_spoly(formats.emit_spoly(poly)) == poly
    born = with_first_record(build_base_example(), "curves",
                             source=("branch", "c:1"))
    arr, _ = formats.parse_arr(formats.emit_arr(born))
    assert arr == born.arrangement
    plan = with_witness(relocation_plan(), (("o:cut", None, 1),
                                            ("i:cut", "o_cut", -1)))
    plan = with_route_edge(plan, "e:1")
    parsed, files = formats.parse_plan(formats.emit_plan(plan, "a:b.spoly",
                                                         "a@b.arr"))
    assert replace(parsed, base=None) == replace(plan, base=None)
    assert files == ("a:b.spoly", "a@b.arr")


def test_hole_side_other_than_left_or_right_is_an_emit_error():
    # parse_plan reads only left or right after `holes`, so `holes up` was
    # written and then refused on reading
    from test_violation_codes import seeded_crossing_plan
    with pytest.raises(EmitError, match="^cannot write holes side 'up': "
                                        "it is neither left nor right$"):
        formats.emit_plan(seeded_crossing_plan("up"))
    for holes in (None, "left", "right"):
        plan = seeded_crossing_plan(holes)
        parsed, _ = formats.parse_plan(formats.emit_plan(plan))
        assert replace(parsed, base=None) == replace(plan, base=None)


def test_cli_surgery_on_a_circle_id_with_a_colon(tmp_path, monkeypatch):
    # the ids surgery mints from it hold the colon in the first field of
    # their tokens, so its output reads back
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = Path("klein.plan").read_text().replace("outer_cut", "o:cut")
    Path("colon.plan").write_text(text)
    assert main(["surgery", "colon.plan", "-o", "out"]) == 0
    assert "t_o:cut" in Path("out.spoly").read_text()
    assert main(["validate", "out.spoly", "out.arr"]) == 0


def test_plan_roundtrip():
    for plan in (klein_plan(), relocation_plan()):
        text = formats.emit_plan(plan)
        parsed, files = formats.parse_plan(text)
        assert replace(parsed, base=None) == replace(plan, base=None)
        assert files == ("base.spoly", "base.arr")


def test_crossing_plan_roundtrip(rng):
    # interior plans, whose circles cross no arc, ride along
    from randgen import (random_crossing_plan, random_interior_plan,
                         random_round_map)
    kinds = set()
    for i in range(100):
        born = random_round_map(rng, name=f"p{i}")
        for plan in (random_crossing_plan(rng, born),
                     random_interior_plan(rng, born)):
            if plan is None:
                continue
            kinds.add(any(circle.events for circle in plan.circles))
            parsed, _ = formats.parse_plan(formats.emit_plan(plan))
            assert replace(parsed, base=None) == replace(plan, base=None)
    assert kinds == {True, False}


def test_fixture_files_regenerate_bit_identically():
    base = build_base_example()
    surgered = build_surgered_example()
    expect = {
        "roundmap.spoly": formats.emit_spoly(base.polyhedron),
        "roundmap.arr": formats.emit_arr(base),
        "klein.plan": formats.emit_plan(klein_plan(base), "roundmap.spoly",
                                        "roundmap.arr"),
        "surgered.spoly": formats.emit_spoly(surgered.polyhedron),
        "surgered.arr": formats.emit_arr(surgered),
    }
    for name, text in expect.items():
        with open(repo_path("fixtures", name)) as handle:
            assert handle.read() == text, name


def test_parse_error_reports_line():
    with pytest.raises(formats.ParseError):
        formats.parse_spoly("SHEET broken\n")


MALFORMED_SPOLY_RECORDS = [
    "SHEET a orientable q",
    "CIRCUIT a c:x:+",
    "ARC c triple",
    "ARC c triple ends v:0",
    "VERTEX v ends a:0",
]


@pytest.mark.parametrize("record", MALFORMED_SPOLY_RECORDS)
def test_malformed_spoly_record_is_a_parse_error(record):
    text = f"POLY p\nSHEET a orientable 0\n{record}\n"
    with pytest.raises(formats.ParseError, match="^line 3: "):
        formats.parse_spoly(text)


# a comment-only line, a record with a trailing comment and a blank line
# put the record under test on line 5
SPOLY_LEAD = "# lead\nPOLY p  # named p\n\nSHEET a orientable 0\n"


@pytest.mark.parametrize("record, message", [
    ("CIRCUIT a c1:0", "expected 3 fields separated by ':', got 'c1:0'"),
    ("CIRCUIT a c1:x:+", "expected an integer, got 'x'"),
    ("CIRCUIT a c1:0:*", "expected + or -, got '*'"),
    ("CIRCUIT a c1:0:", "expected + or -, got ''"),
    ("CIRCUIT a c1:0:+ c1:1:+ c1:x:*", "expected an integer, got 'x'"),
    ("CIRCUIT a", "bad CIRCUIT record"),
    ("SHEET s1 orientable", "bad SHEET record"),
    ("SHEET s1 orientable 0 1", "bad SHEET record"),
    ("SHEET s1 flat 0", "expected orientable or nonorientable, got 'flat'"),
    ("CIRCUIT zz c1:0:+", "CIRCUIT before SHEET zz"),
])
def test_spoly_record_errors_name_their_line(record, message):
    with pytest.raises(formats.ParseError) as caught:
        formats.parse_spoly(SPOLY_LEAD + record + "\n")
    assert str(caught.value) == f"line 5: {message}"
    # the error shows no other exception in its traceback
    assert caught.value.__cause__ is None
    assert caught.value.__context__ is None or \
        caught.value.__suppress_context__


def test_spoly_records_behind_comments_parse():
    # only the last two colons of a traversal separate: the arc is a:b:c
    poly = formats.parse_spoly(SPOLY_LEAD + "CIRCUIT a a:b:c:0:+ x:1:-\n"
                               "SHEET s1 orientable 0 # x 1\n")
    assert poly.name == "p"
    assert poly.sheet("a").circuits == \
        ((WingTraversal("a:b:c", 0, 1), WingTraversal("x", 1, -1)),)
    assert poly.sheet("s1").circuits == ()


@pytest.mark.parametrize("text, message", [
    # a line separator inside a comment does not end the comment's line
    ("# note\u2028more\nBAD x\n", "line 2: unknown record 'BAD'"),
    # a form feed inside a record separates its tokens, not its lines
    ("POLY p\x0cq\n", "line 1: bad POLY record"),
    ("# x\x0b\x1c\x1d\x1e\x85\u2029y\nBAD x\n",
     "line 2: unknown record 'BAD'"),
    ("POLY p\r\n# c\r\n\r\nBAD x\r\n", "line 4: unknown record 'BAD'"),
    ("POLY p\r# c\r\rBAD x\r", "line 4: unknown record 'BAD'"),
    ("POLY p\r\n# c\r\nBAD x\n", "line 3: unknown record 'BAD'"),
])
def test_records_end_only_at_the_line_ends_open_reads(text, message):
    with pytest.raises(formats.ParseError) as caught:
        formats.parse_spoly(text)
    assert str(caught.value) == message


def test_arr_and_plan_records_behind_comments_name_their_line():
    with pytest.raises(formats.ParseError, match="^line 5: bad COUNT record$"):
        formats.parse_arr("# lead\nNAME m  # named m\n\nFACE r5\nCOUNT r3\n")
    with pytest.raises(formats.ParseError, match="^line 5: bad CIRCLE record$"):
        formats.parse_plan("# lead\nPLAN p  # named p\n\n"
                           "CIRCLE inner_cut patchdir +\nCIRCLE outer_cut +\n")


MALFORMED_ARR_RECORDS = [
    "COUNT r3",
    "CURVE",
    "CONTOUR r5 q",
    "CROSSING x e:0 e:1",
    "EDGE e curve c ends x:q y:1 left a right b",
    "CURVE im source branch:c1 edges e draw 0.0 x 1.0",
    "FACE f label",
    "ASSIGN c1 curve im dir +",
    "WINGSIDE c1 c1:0",
]


@pytest.mark.parametrize("record", MALFORMED_ARR_RECORDS)
def test_malformed_arr_record_is_a_parse_error(record):
    text = f"NAME m\nFACE r5\n{record}\n"
    with pytest.raises(formats.ParseError, match="^line 3: "):
        formats.parse_arr(text)


MALFORMED_PLAN_RECORDS = [
    "CIRCLE outer_cut +",
    "SEG inner_cut sheet o_floor",
    "SEG outer_cut 0 sheet i_band",
    "SEG inner_cut 0 sheet o_floor sidegenus",
    "EVENT inner_cut 0 arc a pos 1/0 slotin 0 slotout 1",
    "IMAGEROUTE inner_cut cross e_1",
    "IMAGERUN inner_cut 0 face r2 holes up",
    "PATCH orientable genus 0 boundaries",
    "WITNESS nesting inner_cut:-:+ surface orientable genus 0",
]


@pytest.mark.parametrize("record", MALFORMED_PLAN_RECORDS)
def test_malformed_plan_record_is_a_parse_error(record):
    text = f"PLAN p\nCIRCLE inner_cut patchdir +\n{record}\n"
    with pytest.raises(formats.ParseError, match="^line 3: "):
        formats.parse_plan(text)


@pytest.mark.parametrize("records, message", [
    (["WINGSIDE zz c1:0:L"], "WINGSIDE before ASSIGN zz"),
    (["COUNT r0 7"], "repeated COUNT r0"),
    (["ASSIGN c1 curve im_c1 dir + heavy R"], "repeated ASSIGN c1"),
    (["WINGSIDE c1 c1:0:R c1:1:R c1:2:L"], "repeated WINGSIDE c1"),
    (["VERTEXMAP v0 x0", "VERTEXMAP v0 x1"], "repeated VERTEXMAP v0"),
])
def test_arr_record_that_would_be_dropped_is_a_parse_error(
        records, message, tmp_path, monkeypatch, capsys):
    # an unassigned strand's wing sides, or a second value for a key,
    # would otherwise be dropped or overwrite the first without a trace
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = Path("roundmap.arr").read_text().splitlines() + records
    Path("bad.arr").write_text("\n".join(lines) + "\n")
    with pytest.raises(formats.ParseError, match=f"^line {len(lines)}: {message}$"):
        formats.parse_arr(Path("bad.arr").read_text())
    capsys.readouterr()
    assert main(["validate", "roundmap.spoly", "bad.arr"]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: line {len(lines)}: ")


@pytest.mark.parametrize("parse, text, tag", [
    (formats.parse_spoly, formats.emit_spoly(build_base_example().polyhedron),
     "POLY"),
    (formats.parse_arr, formats.emit_arr(build_base_example()), "NAME"),
    (formats.parse_plan, formats.emit_plan(relocation_plan()), "PLAN"),
    (formats.parse_plan, formats.emit_plan(relocation_plan()), "BASE"),
    (formats.parse_plan, formats.emit_plan(relocation_plan()), "PATCH"),
    (formats.parse_plan, formats.emit_plan(relocation_plan()), "WITNESS"),
])
def test_repeated_single_record_is_a_parse_error(parse, text, tag):
    # the second record would otherwise replace the first without a trace
    lines = text.splitlines()
    lines.append(next(line for line in lines if line.startswith(tag + " ")))
    with pytest.raises(formats.ParseError,
                       match=f"^line {len(lines)}: repeated {tag} record$"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("first, second", [
    ("IMAGECIRCLE xa face r0 orient +", "IMAGECIRCLE xa face r0 orient -"),
    ("IMAGEROUTE xa cross e_c1@1/3", "IMAGEROUTE xa cross e_c1@2/3"),
    ("IMAGEROUTE xa cross e_c1@1/3", "IMAGECIRCLE xa face r0"),
])
def test_second_image_of_a_circle_is_a_parse_error(first, second):
    text = ("PLAN p\nPATCH orientable genus 0 boundaries 1 id p\n"
            f"CIRCLE xa patchdir +\n{first}\n{second}\n")
    with pytest.raises(formats.ParseError,
                       match="^line 5: second image record for circle xa$"):
        formats.parse_plan(text)


def test_hole_side_other_than_left_or_right_is_a_parse_error():
    # read as given, it would pass the plan checks and fail only when
    # surgery looks for the piece of the split face on that side
    text = ("PLAN p\nPATCH orientable genus 0 boundaries 1 id p\n"
            "CIRCLE xa patchdir +\nIMAGEROUTE xa cross e_c1@1/3 e_c1@2/3\n"
            "IMAGERUN xa 0 face r1 holes up\n")
    with pytest.raises(formats.ParseError,
                       match="^line 5: expected left or right, got 'up'$"):
        formats.parse_plan(text)


@pytest.mark.parametrize("record, message", [
    ("IMAGERUN outer_cut 0 face r2", "IMAGERUN before IMAGEROUTE outer_cut"),
    ("DISK nowhere faces r1", "DISK names no earlier CIRCLE"),
    ("DISK outer_cut faces r5", "repeated DISK outer_cut"),
])
def test_plan_record_that_would_be_dropped_is_a_parse_error(record, message):
    # a run of a circle with no route image, or a disk for an unknown or
    # already bounded circle, would otherwise be dropped or kept unread
    lines = formats.emit_plan(relocation_plan()).splitlines() + [record]
    with pytest.raises(formats.ParseError,
                       match=f"^line {len(lines)}: {message}$"):
        formats.parse_plan("\n".join(lines) + "\n")


def test_cli_surgery_on_a_repeated_patch_is_status_two(tmp_path, monkeypatch,
                                                      capsys):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = Path("klein.plan").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("PATCH "))
    lines.insert(at, lines[at])
    Path("bad.plan").write_text("\n".join(lines) + "\n")
    assert main(["surgery", "bad.plan", "-o", "out"]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: line {at + 2}: ")


def test_cli_obstruct_on_malformed_record_is_status_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad.spoly").write_text("POLY p\nSHEET a orientable q\n")
    assert main(["obstruct", "bad.spoly"]) == 2


def copy_fixtures(directory):
    for name in os.listdir(repo_path("fixtures")):
        shutil.copy(repo_path("fixtures", name), directory)


def test_cli_on_malformed_arr_and_plan_is_status_two(tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path("bad.arr").write_text("COUNT r3\n")
    assert main(["validate", "roundmap.spoly", "bad.arr"]) == 2
    plan = Path("klein.plan").read_text().replace("patchdir +", "+", 1)
    Path("bad.plan").write_text(plan)
    assert main(["surgery", "bad.plan", "-o", "out"]) == 2
    assert not os.path.exists("out.spoly")


def test_cli_directory_input_is_status_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("adir")
    assert main(["validate", "adir"]) == 2
    assert capsys.readouterr().err.startswith("cannot read adir: ")


def test_cli_undecodable_input_is_status_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.spoly").write_bytes(b"POLY p\nSHEET a orientable \xff\n")
    assert main(["obstruct", "bad.spoly"]) == 2
    assert capsys.readouterr().err.startswith("cannot read bad.spoly: ")


def test_cli_ignores_a_leading_byte_order_mark(tmp_path, monkeypatch, capsys):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name in ("roundmap.spoly", "roundmap.arr"):
        data = Path(name).read_bytes()
        Path("bom_" + name).write_bytes(b"\xef\xbb\xbf" + data)
    capsys.readouterr()
    assert main(["validate", "roundmap.spoly", "roundmap.arr"]) == 0
    plain = capsys.readouterr()
    assert main(["validate", "bom_roundmap.spoly", "bom_roundmap.arr"]) == 0
    assert capsys.readouterr() == plain
    # decoding counts the mark's three bytes in the offset it reports
    Path("bad.spoly").write_bytes(b"\xef\xbb\xbfPOLY p\n\xff\n")
    assert main(["validate", "bad.spoly"]) == 2
    assert capsys.readouterr().err == ("cannot read bad.spoly: not UTF-8 text "
                                       "(byte 0xff at offset 10)\n")


def test_cli_write_into_missing_directory_is_status_two(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    target = os.path.join("missing", "roundmap")
    assert main(["example", "base", "-o", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {target}.spoly: ")
    assert ".tmp_spineforge_" not in err


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cli_output_files_get_the_mode_open_gives(tmp_path, monkeypatch,
                                                  umask):
    # a new file gets 0o666 less the umask, as open(path, "w") gives it,
    # and an existing one keeps its own mode
    monkeypatch.chdir(tmp_path)
    Path("kept.arr").write_text("")
    os.chmod("kept.arr", 0o640)
    old = os.umask(umask)
    try:
        assert main(["example", "base", "-o", "rm"]) == 0
        assert main(["example", "base", "-o", "kept"]) == 0
    finally:
        os.umask(old)
    for name in ("rm.spoly", "rm.arr", "rm_klein.plan", "kept.spoly"):
        assert stat.S_IMODE(os.stat(name).st_mode) == 0o666 & ~umask, name
    assert stat.S_IMODE(os.stat("kept.arr").st_mode) == 0o640
    assert Path("kept.arr").read_text() == Path("rm.arr").read_text()
    assert sorted(os.listdir()) == sorted(
        ["rm.spoly", "rm.arr", "rm_klein.plan", "kept.spoly", "kept.arr",
         "kept_klein.plan"])


def test_cli_output_is_written_through_a_symbolic_link(tmp_path, monkeypatch,
                                                       capsys):
    # as with open(path, "w"), a link at the output path stays a link, and
    # the file it points to in another directory gets the text
    monkeypatch.chdir(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    (other / "real.spoly").write_text("")
    os.symlink(other / "real.spoly", "rm.spoly")
    assert main(["example", "base", "-o", "rm"]) == 0
    assert capsys.readouterr().out == (
        "wrote rm.spoly rm.arr rm_klein.plan\n")
    assert os.path.islink("rm.spoly")
    assert (other / "real.spoly").read_text() == formats.emit_spoly(
        build_base_example().polyhedron)
    assert os.listdir(other) == ["real.spoly"]
    assert sorted(os.listdir()) == ["other", "rm.arr", "rm.spoly",
                                    "rm_klein.plan"]


def mutate(rng, text):
    """One random edit of one line: drop a token, swap in a bad token,
    truncate the line or duplicate it."""
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    tokens = lines[at].split()
    edit = rng.randrange(4)
    if edit == 0:
        del tokens[rng.randrange(len(tokens))]
    elif edit == 1:
        tokens[rng.randrange(len(tokens))] = rng.choice(["q", "-1", "x:y"])
    elif edit == 2:
        tokens = tokens[:rng.randrange(len(tokens))]
    if edit == 3:
        lines.insert(at, lines[at])
    else:
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


FUZZ_COMMANDS = {
    ".spoly": (formats.parse_spoly, ["obstruct", "mutated.spoly"]),
    ".arr": (formats.parse_arr, ["validate", "roundmap.spoly", "mutated.arr"]),
    ".plan": (formats.parse_plan, ["surgery", "mutated.plan", "-o", "out"]),
}


def test_mutated_fixtures_raise_only_parse_errors(rng, tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    rejected = {}
    for name in sorted(os.listdir(repo_path("fixtures"))):
        suffix = os.path.splitext(name)[1]
        parse = FUZZ_COMMANDS[suffix][0]
        text = Path(name).read_text()
        for _ in range(300):
            mutated = mutate(rng, text)
            try:
                parse(mutated)
            except SpineForgeError:
                rejected.setdefault(suffix, []).append(mutated)
    for suffix, (_, argv) in FUZZ_COMMANDS.items():
        assert len(rejected[suffix]) > 100, suffix
        for mutated in rng.sample(rejected[suffix], 5):
            Path("mutated" + suffix).write_text(mutated)
            assert main(argv) == 2, mutated


def test_cli_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "base", "-o", "roundmap"]) == 0
    assert main(["validate", "roundmap.spoly", "roundmap.arr"]) == 0
    assert main(["euler", "roundmap.spoly"]) == 0
    assert main(["homology", "roundmap.spoly"]) == 0
    assert main(["surgery", "roundmap_klein.plan", "-o", "surgered"]) == 0
    assert main(["validate", "surgered.spoly", "surgered.arr"]) == 0
    assert main(["obstruct", "surgered.spoly"]) == 0
    assert main(["render", "roundmap.spoly", "roundmap.arr",
                 "-o", "out.svg"]) == 0
    assert main(["graph", "roundmap_klein.plan", "-o", "g"]) == 0
    assert os.path.exists("g_disk_outer_cut.dot")


def test_cli_graph_refuses_a_disk_id_that_leaves_the_prefix_directory(
        tmp_path, monkeypatch, capsys):
    # the DOT path of circle /../../escaped would lie two levels up
    work = tmp_path / "top" / "sub"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    assert main(["example", "base", "-o", "rm"]) == 0
    plan = Path("rm_klein.plan").read_text()
    assert "outer_cut" in plan
    Path("rm_klein.plan").write_text(plan.replace("outer_cut", "/../../escaped"))
    before = sorted(os.listdir())
    capsys.readouterr()
    assert main(["graph", "rm_klein.plan", "-o", "g"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cannot write g_disk_/../../escaped.dot: ")
    # no file is written, the other disk's graph included
    assert sorted(os.listdir()) == before
    assert os.listdir(tmp_path) == ["top"]
    assert os.listdir(tmp_path / "top") == ["sub"]


def test_cli_graph_quotes_a_sheet_id_holding_a_quote(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "base", "-o", "rm"]) == 0
    for name in ("rm.spoly", "rm_klein.plan"):
        text = Path(name).read_text()
        assert "i_band" in text
        Path(name).write_text(text.replace("i_band", 'i"band'))
    assert main(["graph", "rm_klein.plan", "-o", "g"]) == 0
    dot = Path("g_disk_outer_cut.dot").read_text()
    assert '  "i\\"band";\n' in dot
    assert '"i"band"' not in dot


def test_cli_example_plan_names_its_base_beside_it(tmp_path, monkeypatch,
                                                   capsys):
    # the plan reads its base beside itself, so the prefix's directory is
    # not part of the names it holds
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    base = os.path.join("sub", "rm")
    assert main(["example", "base", "-o", base]) == 0
    assert "BASE rm.spoly rm.arr\n" in Path(base + "_klein.plan").read_text()
    capsys.readouterr()
    assert main(["surgery", base + "_klein.plan",
                 "-o", os.path.join("sub", "out")]) == 0
    assert capsys.readouterr().err == ""
    assert Path("sub", "out.spoly").read_text() == formats.emit_spoly(
        attach_surface(klein_plan()).polyhedron)
    assert sorted(os.listdir("sub")) == ["out.arr", "out.spoly", "rm.arr",
                                         "rm.spoly", "rm_klein.plan"]


def test_cli_example_whose_base_name_cannot_be_emitted_writes_no_file(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "base", "-o", "a b"]) == 1
    assert capsys.readouterr().err == (
        "EmitError: cannot write base file name 'a b.spoly': "
        "it holds whitespace\n")
    assert os.listdir() == []
    # a directory holding whitespace is not a base name
    Path("c d").mkdir()
    assert main(["example", "base", "-o", os.path.join("c d", "rm")]) == 0
    assert sorted(os.listdir("c d")) == ["rm.arr", "rm.spoly", "rm_klein.plan"]


def crossing_plan_files(rng):
    """A random crossing plan; its base is written to m.spoly and m.arr."""
    from randgen import random_crossing_plan, random_round_map
    plan = None
    while plan is None:
        born = random_round_map(rng)
        plan = random_crossing_plan(rng, born)
    Path("m.spoly").write_text(formats.emit_spoly(born.polyhedron))
    Path("m.arr").write_text(formats.emit_arr(born))
    return plan


def with_first_event(plan, **change):
    circle = plan.circles[0]
    events = (replace(circle.events[0], **change),) + circle.events[1:]
    return replace(plan, circles=(replace(circle, events=events),)
                   + plan.circles[1:])


def test_cli_graph_on_plan_unknown_to_its_base_fails_like_surgery(
        rng, tmp_path, monkeypatch, capsys):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    plans = [(Path("klein.plan").read_text().replace(
        "SEG outer_cut 0 sheet i_band", "SEG outer_cut 0 sheet x:y"),
        "UnknownSheet")]
    plan = crossing_plan_files(rng)
    for change, code in (({"arc": "zz"}, "UnknownArc"),
                         ({"slot_in": 7}, "UnknownSlot"),
                         ({"slot_out": -1}, "UnknownSlot")):
        plans.append((formats.emit_plan(with_first_event(plan, **change),
                                        "m.spoly", "m.arr"), code))
    for text, code in plans:
        Path("bad.plan").write_text(text)
        for command in ("surgery", "graph"):
            capsys.readouterr()
            assert main([command, "bad.plan", "-o", "out"]) == 1
            assert capsys.readouterr().err.startswith(f"{code}: ")
        assert not [name for name in os.listdir() if name.startswith("out")]


def test_cli_validate_rejects_a_wing_listed_twice(tmp_path, monkeypatch,
                                                 capsys):
    # c1:2 on the light side, as the record's last entry, is valid alone
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = Path("roundmap.arr").read_text()
    record = "WINGSIDE c1 c1:0:R c1:1:R c1:2:L\n"
    assert record in text
    Path("twice.arr").write_text(text.replace(
        record, "WINGSIDE c1 c1:0:R c1:1:R c1:2:R c1:2:L\n"))
    capsys.readouterr()
    assert main(["validate", "roundmap.spoly", "twice.arr"]) == 1
    assert "WingSides(c1): slot 2 listed twice" in capsys.readouterr().out


@pytest.mark.parametrize("record, changed, message", [
    ("WINGSIDE c1 c1:0:R c1:1:R c1:2:L", "WINGSIDE c1 c1:0:R c1:1:R c1:2:Q",
     "line 41: expected L or R, got 'Q'"),
    ("ASSIGN c1 curve im_c1 dir + heavy R", "ASSIGN c1 curve im_c1 dir + heavy X",
     "line 40: expected L or R, got 'X'"),
])
def test_cli_validate_refuses_a_side_other_than_l_or_r(
        record, changed, message, tmp_path, monkeypatch, capsys):
    # such a side used to be read, and the map validated or was reported
    # as a wing count on the heavy side
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = Path("roundmap.arr").read_text()
    assert record + "\n" in text
    Path("side.arr").write_text(text.replace(record + "\n", changed + "\n"))
    with pytest.raises(formats.ParseError, match=f"^{message}$"):
        formats.parse_arr(Path("side.arr").read_text())
    capsys.readouterr()
    assert main(["validate", "roundmap.spoly", "side.arr"]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_one_token_edits_of_fixture_records_name_their_line_or_a_later_one():
    # an edit cannot break the records before it; a later record, such as
    # a CIRCUIT of a SHEET whose id the edit changed, may be the one named
    for name in sorted(os.listdir(repo_path("fixtures"))):
        parse = FUZZ_COMMANDS[os.path.splitext(name)[1]][0]
        lines = Path(repo_path("fixtures", name)).read_text().splitlines()
        for at, line in enumerate(lines):
            tokens = line.split()
            edits = [lines[:at + 1] + lines[at:]]
            for i in range(len(tokens)):
                for token in ([], ["Q"], ["x:y"], ["-1"]):
                    edited = " ".join(tokens[:i] + token + tokens[i + 1:])
                    edits.append(lines[:at] + [edited] + lines[at + 1:])
            for edit in edits:
                try:
                    parse("\n".join(edit) + "\n")
                except formats.ParseError as exc:
                    if str(exc) == "plan has no PATCH record":
                        continue
                    named = re.match(r"line (\d+): ", str(exc))
                    assert named and int(named[1]) > at, (name, at, str(exc))


def test_cli_validate_rejects_broken_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["example", "base", "-o", "roundmap"])
    text = Path("roundmap.spoly").read_text()
    # drop one circuit line: a triple arc is left with two filled slots
    lines = [l for l in text.splitlines() if not l.startswith("CIRCUIT o_cap")]
    Path("broken.spoly").write_text("\n".join(lines) + "\n")
    assert main(["validate", "broken.spoly"]) == 1


@pytest.mark.parametrize("argv, report", [
    (["euler", "bad.spoly"], "invalid: "),
    (["homology", "bad.spoly"], "invalid: "),
    (["obstruct", "bad.spoly"], "invalid: "),
    # the .arr is never read: it does not exist
    (["validate", "bad.spoly", "missing.arr"], "polyhedron: invalid: "),
])
def test_cli_on_an_invalid_polyhedron_is_status_one(tmp_path, monkeypatch,
                                                    capsys, argv, report):
    # one sheet fills one of the three slots of a closed triple arc
    monkeypatch.chdir(tmp_path)
    Path("bad.spoly").write_text("POLY bad\nSHEET s0 orientable 0\n"
                                 "CIRCUIT s0 c1:0:+\n"
                                 "ARC c1 triple closed monodromy trivial\n")
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == report + "TripleArcDegree(c1): 1 of 3 slots filled\n"
    assert out.err == ""


def test_cli_unknown_input_is_status_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "missing.spoly"]) == 2
    Path("garbage.spoly").write_text("WHAT is this\n")
    assert main(["validate", "garbage.spoly"]) == 2


def test_cli_unknown_subcommand_is_status_two(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_cli_obstruct_rejects_a_bound_below_one(bound, capsys):
    surgered = repo_path("fixtures", "surgered.spoly")
    assert main(["obstruct", surgered, "--bound", bound]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spineforge obstruct")
    assert f"must be a positive integer, got '{bound}'" in err


def test_cli_main_reuses_one_parser(capsys):
    assert build_parser() is build_parser()
    surgered = repo_path("fixtures", "surgered.spoly")
    for bad in (["frobnicate"], ["obstruct", "--bound", "x", surgered]):
        assert main(bad) == 2
        capsys.readouterr()
        assert main(["obstruct", surgered]) == 0
        assert capsys.readouterr().out.startswith("obstructed")


def test_cli_one_shot_matches_in_process_call(capsys):
    surgered = repo_path("fixtures", "surgered.spoly")
    assert main(["obstruct", surgered]) == 0
    in_process = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [repo_path("src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "spineforge.cli",
                             "obstruct", surgered],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout == in_process


def run_cli(*argv, cwd):
    """`python -m spineforge.cli` in a subprocess that cannot outlive 60 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [repo_path("src"), os.environ.get("PYTHONPATH")])))
    try:
        return subprocess.run([sys.executable, "-m", "spineforge.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"spineforge {' '.join(argv)} did not stop within 60 s")


def test_cli_rejects_cyclic_image_nesting(tmp_path):
    copy_fixtures(tmp_path)
    plan = (tmp_path / "klein.plan").read_text().replace(
        "face r2 orient +", "face r2 inside inner_cut orient +")
    (tmp_path / "cyclic.plan").write_text(plan)
    result = run_cli("surgery", "cyclic.plan", "-o", "out", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("NestingCycle: ")


def test_cli_rejects_image_nested_in_unknown_circle(tmp_path, monkeypatch,
                                                    capsys):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    plan = Path("klein.plan").read_text().replace("inside outer_cut",
                                                   "inside nowhere")
    Path("unknown.plan").write_text(plan)
    assert main(["surgery", "unknown.plan", "-o", "out"]) == 1
    assert capsys.readouterr().err.startswith("UnknownCircle: ")
    assert not os.path.exists("out.spoly")


def relocation_plan_text(nesting):
    return formats.emit_plan(relocation_plan(), "roundmap.spoly",
                             "roundmap.arr").replace(
        "nesting outer_cut:-:+ inner_cut:outer_cut:-", f"nesting {nesting}")


def test_cli_normalize_rejects_cyclic_witness_nesting(tmp_path):
    copy_fixtures(tmp_path)
    (tmp_path / "cyclic.plan").write_text(relocation_plan_text(
        "outer_cut:inner_cut:+ inner_cut:outer_cut:-"))
    result = run_cli("normalize", "cyclic.plan", "-o", "out", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("WitnessMismatch: ")


def test_cli_normalize_rejects_witness_with_unknown_parent(
        tmp_path, monkeypatch, capsys):
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path("unknown.plan").write_text(relocation_plan_text(
        "outer_cut:-:+ inner_cut:nowhere:-"))
    assert main(["normalize", "unknown.plan", "-o", "out"]) == 1
    assert capsys.readouterr().err.startswith("WitnessMismatch: ")
    assert not os.path.exists("out.spoly")


def test_cli_normalize_reports_an_unknown_image_face(tmp_path):
    copy_fixtures(tmp_path)
    (tmp_path / "zz.plan").write_text(relocation_plan_text(
        "outer_cut:-:+ inner_cut:outer_cut:-").replace(
        "IMAGECIRCLE outer_cut face r2", "IMAGECIRCLE outer_cut face zz"))
    result = run_cli("normalize", "zz.plan", "-o", "out", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("UnknownFace: ")
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out.spoly").exists()


def test_cli_obstruct_after_a_truncated_search_is_undecided(capsys):
    surgered = repo_path("fixtures", "surgered.spoly")
    assert main(["obstruct", surgered, "--bound", "3"]) == 0
    assert capsys.readouterr().out == (
        "search truncated at bound 3\n"
        "undecided: no closed non-orientable subsurface within bound 3\n")


def test_cli_obstruct_decides_a_128_circle_tower_at_the_default_bound(
        tmp_path, monkeypatch, capsys):
    # 255 sheets and 8128 closed selections, all orientable: the search
    # must run to the end within 100000 states to say so
    from spineforge.gallery import RoundCircle, RoundSpec, round_reeb
    circles = tuple(RoundCircle("boundary" if k == 0 else "triple", k + 1, k)
                    for k in reversed(range(128)))
    tower = round_reeb(RoundSpec(circles, name="tower128"))
    monkeypatch.chdir(tmp_path)
    Path("tower.spoly").write_text(formats.emit_spoly(tower.polyhedron))
    assert main(["obstruct", "tower.spoly"]) == 0
    assert capsys.readouterr().out == (
        "not obstructed by a closed non-orientable subsurface\n")


def test_render_counts_circles_and_labels():
    base = build_base_example()
    svg = render_svg(base)
    assert svg.count("<circle") == 6
    assert svg.count("<text") == 7
    assert 'stroke="black"' in svg and 'stroke="gray"' in svg

    surgered = build_surgered_example()
    svg = render_svg(surgered)
    assert svg.count("<circle") == 8


def test_render_places_a_curve_without_a_draw_hint_by_depth():
    # the route image im_xa has no draw hint
    poly = formats.parse_spoly(
        Path(repo_path("fixtures", "crossed.spoly")).read_text())
    arr, data = formats.parse_arr(
        Path(repo_path("fixtures", "crossed.arr")).read_text())
    born = formats.assemble_born_map(poly, arr, data)
    assert born.arrangement.curve("im_xa").draw is None
    svg = render_svg(born)
    assert svg.count("<circle") == len(born.arrangement.curves)
    assert svg.count("<text") == len(born.arrangement.faces)


def test_render_empty_map():
    from conftest import empty_arrangement
    from spineforge.bornmap import BornMap
    from spineforge.core import SimplePolyhedron
    born = BornMap(polyhedron=SimplePolyhedron((), (), (), name="empty"),
                   arrangement=empty_arrangement(), assignments={},
                   fiber_counts={"f_out": 0}, vertex_crossings={},
                   name="empty")
    svg = render_svg(born)
    assert svg.count("<text") == 1
    assert ">0</text>" in svg


def test_console_script_installed(tmp_path):
    result = subprocess.run([sys.executable, "-m", "spineforge.cli",
                             "example", "base", "-o", str(tmp_path / "_sf_test")],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_cli_normalize_writes_the_relocated_map(tmp_path, monkeypatch, capsys):
    # relocation moves the image circles only: the polyhedron stays the base's
    copy_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path("relocation.plan").write_text(formats.emit_plan(
        relocation_plan(), "roundmap.spoly", "roundmap.arr"))
    assert main(["normalize", "relocation.plan", "-o", "relocated"]) == 0
    assert "wrote relocated.spoly relocated.arr" in capsys.readouterr().out
    text = Path("relocated.spoly").read_text()
    assert text == Path("roundmap.spoly").read_text()
    poly = formats.parse_spoly(text)
    arr, data = formats.parse_arr(Path("relocated.arr").read_text())
    assert validate_born_map(formats.assemble_born_map(poly, arr, data)).ok


def test_cli_example_surgered_writes_the_fixtures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "surgered", "-o", "ex"]) == 0
    for suffix in ("spoly", "arr"):
        assert (Path(f"ex.{suffix}").read_bytes()
                == Path(repo_path("fixtures", f"surgered.{suffix}")).read_bytes())
