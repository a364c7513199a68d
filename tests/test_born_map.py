import random
from collections import Counter
from dataclasses import replace

import pytest

from spineforge.bornmap import (realizability_certificate, region_counts,
                                validate_born_map)
from spineforge.errors import DimensionTooLow, InvalidBornMap
from spineforge.gallery import (build_base_example, build_sphere_fixture,
                                build_surgered_example)
from spineforge.surgery import attach_surface

from randgen import random_crossing_plan, random_interior_plan, random_round_map


def test_base_example_counts():
    born = build_base_example()
    assert validate_born_map(born).ok
    counts = region_counts(born)
    assert list(counts.values()) == [4, 5, 4, 3, 2, 1, 0]


def test_sphere_fixture_counts():
    born = build_sphere_fixture()
    assert validate_born_map(born).ok
    assert list(region_counts(born).values()) == [1, 0]


def test_surgered_example_counts():
    born = build_surgered_example()
    counts = region_counts(born)
    assert counts["ring<1"] == 4
    assert counts["ring<2"] == 5
    assert counts["2<r<8"] == 4


def test_region_counts_key_every_face_after_route_surgery():
    # a face split by a route passes its label to every piece, which used
    # to collapse the pieces into one key
    rng = random.Random(7)
    shared = 0
    for _ in range(200):
        born = random_round_map(rng)
        plan = random_crossing_plan(rng, born)
        if plan is None:
            continue
        out = attach_surface(plan)
        counts = region_counts(out)
        faces = out.arrangement.faces
        labels = Counter(f.label for f in faces)
        assert len(counts) == len(faces)
        for face in faces:
            key = face.label if face.label and labels[face.label] == 1 \
                else face.id
            assert counts[key] == out.fiber_counts[face.id]
            shared += labels[face.label] > 1
    assert shared


def test_count_jump_of_two_is_caught():
    born = build_base_example()
    counts = dict(born.fiber_counts)
    counts["r0"] += 1  # 4 -> 5 beside the 5 of r1: jump across c1 becomes 0
    broken = replace(born, fiber_counts=counts)
    report = validate_born_map(broken)
    assert not report.ok
    assert any(v.code == "CrossingRule" for v in report.violations)

    counts = dict(born.fiber_counts)
    counts["r1"] += 1  # 5 -> 6: jump of 2 across c1
    broken = replace(born, fiber_counts=counts)
    report = validate_born_map(broken)
    assert not report.ok
    assert any(v.code == "CrossingRule" for v in report.violations)


def test_heavy_side_convention_checked():
    born = build_base_example()
    assignments = dict(born.assignments)
    a = assignments["c9"]
    assignments["c9"] = replace(a, heavy="R" if a.heavy == "L" else "L")
    broken = replace(born, assignments=assignments)
    report = validate_born_map(broken)
    assert not report.ok
    assert any(v.code in ("HeavySide", "WingSides") for v in report.violations)


def test_unbounded_face_must_be_empty():
    born = build_base_example()
    counts = dict(born.fiber_counts)
    counts["r_out"] = 1
    counts["r5"] = 2  # keep adjacent jumps at 1
    broken = replace(born, fiber_counts=counts)
    report = validate_born_map(broken)
    assert not report.ok
    assert any(v.code == "UnboundedCount" for v in report.violations)


def test_crossing_rule_on_random_maps(rng):
    from spineforge.surgery import attach_surface
    for trial in range(60):
        born = random_round_map(rng, name=f"cr{trial}")
        if trial % 2:
            plan = random_crossing_plan(rng, born) or \
                random_interior_plan(rng, born)
            born = attach_surface(plan)
        assert validate_born_map(born).ok
        branch_curves = {a.curve for a in born.assignments.values()}
        for edge in born.arrangement.edges:
            left = born.fiber_counts[edge.left]
            right = born.fiber_counts[edge.right]
            if edge.curve in branch_curves:
                assert abs(left - right) == 1
            else:
                assert left == right


def test_corner_rule_on_crossing_outputs(rng):
    from spineforge.bornmap import _corner_faces
    from spineforge.surgery import attach_surface
    seen = 0
    for trial in range(60):
        born = random_round_map(rng, name=f"corner{trial}")
        plan = random_crossing_plan(rng, born)
        if plan is None:
            continue
        out = attach_surface(plan)
        rotations = {(1, 1, -1, -1), (1, -1, -1, 1),
                     (-1, -1, 1, 1), (-1, 1, 1, -1)}
        for crossing in out.arrangement.crossings:
            corners = _corner_faces(out.arrangement, crossing)
            counts = [out.fiber_counts[f] for f in corners]
            jumps = tuple(counts[(i + 1) % 4] - counts[i] for i in range(4))
            assert jumps in rotations
            seen += 1
    assert seen > 0


def test_validation_invariant_under_relabeling(rng):
    from spineforge import formats
    born = build_surgered_example()
    text_arr = formats.emit_arr(born)
    text_poly = formats.emit_spoly(born.polyhedron)
    # consistent renaming of faces and edges through the text form
    mapping = {}
    for i, face in enumerate(born.arrangement.faces):
        mapping[face.id] = f"F{i}_{rng.randrange(1000)}"
    for i, edge in enumerate(born.arrangement.edges):
        mapping[edge.id] = f"E{i}_{rng.randrange(1000)}"

    def rename(text):
        out = []
        for line in text.splitlines():
            tokens = line.split(" ")
            renamed = []
            for token in tokens:
                head, sep, tail = token.partition(":")
                if token in mapping:
                    renamed.append(mapping[token])
                elif sep and head in mapping:
                    renamed.append(mapping[head] + sep + tail)
                else:
                    renamed.append(token)
            out.append(" ".join(renamed))
        return "\n".join(out)

    arr2, data = formats.parse_arr(rename(text_arr))
    poly2 = formats.parse_spoly(text_poly)
    born2 = formats.assemble_born_map(poly2, arr2, data)
    assert validate_born_map(born2).ok


def test_vertex_map_checked():
    import random as _r
    local = _r.Random(11)
    from spineforge.surgery import attach_surface
    out = None
    for _ in range(60):
        born = random_round_map(local)
        plan = random_crossing_plan(local, born)
        if plan is not None:
            out = attach_surface(plan)
            break
    assert out is not None and out.polyhedron.vertices
    broken = replace(out, vertex_crossings={})
    report = validate_born_map(broken)
    assert not report.ok
    assert any(v.code == "VertexMap" for v in report.violations)


def test_certificate_on_base_example():
    born = build_base_example()
    cert = realizability_certificate(born, 3)
    assert cert.dimension == 3
    assert cert.singular_components == 6
    assert "6 components" in cert.statement()


def test_certificate_rejects_low_dimension():
    born = build_base_example()
    with pytest.raises(DimensionTooLow):
        realizability_certificate(born, 2)


def test_certificate_single_component():
    # the smallest honest carrier of a one-component branch: a single disk
    # sheet over one boundary circle
    born = build_sphere_fixture()
    cert = realizability_certificate(born, 4)
    assert cert.singular_components == 1


def test_certificate_rejects_invalid_input():
    born = build_base_example()
    counts = dict(born.fiber_counts)
    counts["r1"] += 2
    broken = replace(born, fiber_counts=counts)
    with pytest.raises(InvalidBornMap):
        realizability_certificate(broken, 3)
