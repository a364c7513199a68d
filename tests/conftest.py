import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SEED = int(os.environ.get("SPINE_FORGE_SEED", "0"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def repo_path(*parts):
    return os.path.join(os.path.dirname(__file__), "..", *parts)


def empty_arrangement():
    """The plane with no curves: one unbounded face."""
    from spineforge.arrangement import CurveArrangement, Face
    return CurveArrangement(
        crossings=(), edges=(), curves=(),
        faces=(Face("f_out", contours=(), unbounded=True, label="outside"),))
