import os
import subprocess
import sys
from dataclasses import replace

import pytest

from spineforge import formats
from spineforge.cli import main
from spineforge.gallery import (build_base_example, build_surgered_example,
                                klein_plan, relocation_plan)
from spineforge.render import render_svg

from conftest import repo_path


def test_spoly_roundtrip():
    poly = build_surgered_example().polyhedron
    assert formats.parse_spoly(formats.emit_spoly(poly)) == poly


def test_arr_roundtrip():
    born = build_surgered_example()
    arr, data = formats.parse_arr(formats.emit_arr(born))
    assert arr == born.arrangement
    assert formats.assemble_born_map(born.polyhedron, arr, data) == born


def test_plan_roundtrip():
    for plan in (klein_plan(), relocation_plan()):
        text = formats.emit_plan(plan)
        parsed, files = formats.parse_plan(text)
        assert replace(parsed, base=None) == replace(plan, base=None)
        assert files == ("base.spoly", "base.arr")


def test_crossing_plan_roundtrip(rng):
    from randgen import random_crossing_plan, random_round_map
    plan = None
    while plan is None:
        plan = random_crossing_plan(rng, random_round_map(rng))
    parsed, _ = formats.parse_plan(formats.emit_plan(plan))
    assert replace(parsed, base=None) == replace(plan, base=None)


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


def test_cli_obstruct_on_malformed_record_is_status_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    open("bad.spoly", "w").write("POLY p\nSHEET a orientable q\n")
    assert main(["obstruct", "bad.spoly"]) == 2


def run_cli(args, cwd):
    return main(args)


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


def test_cli_validate_rejects_broken_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["example", "base", "-o", "roundmap"])
    text = open("roundmap.spoly").read()
    # drop one circuit line: a triple arc is left with two filled slots
    lines = [l for l in text.splitlines() if not l.startswith("CIRCUIT o_cap")]
    open("broken.spoly", "w").write("\n".join(lines) + "\n")
    assert main(["validate", "broken.spoly"]) == 1


def test_cli_unknown_input_is_status_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "missing.spoly"]) == 2
    open("garbage.spoly", "w").write("WHAT is this\n")
    assert main(["validate", "garbage.spoly"]) == 2


def test_cli_unknown_subcommand_is_status_two(capsys):
    assert main(["frobnicate"]) == 2


def test_render_counts_circles_and_labels():
    base = build_base_example()
    svg = render_svg(base)
    assert svg.count("<circle") == 6
    assert svg.count("<text") == 7
    assert 'stroke="black"' in svg and 'stroke="gray"' in svg

    surgered = build_surgered_example()
    svg = render_svg(surgered)
    assert svg.count("<circle") == 8


def test_render_empty_map():
    from spineforge.arrangement import empty_arrangement
    from spineforge.bornmap import BornMap
    from spineforge.core import SimplePolyhedron
    born = BornMap(polyhedron=SimplePolyhedron((), (), (), name="empty"),
                   arrangement=empty_arrangement(), assignments={},
                   fiber_counts={"f_out": 0}, vertex_crossings={},
                   name="empty")
    svg = render_svg(born)
    assert svg.count("<text") == 1
    assert ">0</text>" in svg


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "spineforge.cli",
                             "example", "base", "-o", "/tmp/_sf_test"],
                            capture_output=True, text=True)
    assert result.returncode == 0
