from fractions import Fraction

import numpy as np
import pytest

from odolab import gallery
from odolab.space import AlphabetRule, MeasureFamily, SystemSpec


class ListedMeasure(MeasureFamily):
    """Test-only family: one explicit weight vector per coordinate.

    Coordinates past the list repeat the last vector.  Float entries stay
    floats, so a vector may be a float coordinate; anything else is read as
    a Fraction.
    """

    name = "listed-test"

    def __init__(self, vectors):
        super().__init__({})
        self.vectors = [tuple(x if isinstance(x, float) else Fraction(x)
                              for x in v) for v in vectors]

    def weights(self, i, m):
        v = self.vectors[min(i - 1, len(self.vectors) - 1)]
        assert len(v) == m
        return v


def listed_spec(kind, vectors) -> SystemSpec:
    sizes = [len(v) for v in vectors]
    return SystemSpec(kind=kind,
                      alphabet=AlphabetRule("list", {"list": sizes,
                                                     "repeat": "last"}),
                      measure=ListedMeasure(vectors))


def member_cells(S) -> frozenset:
    return frozenset(S.mask().nonzero()[0].tolist())


def uniform_binary() -> SystemSpec:
    return gallery.get_spec("same-measure(1/2,1/2)")


@pytest.fixture
def binary_uniform():
    return uniform_binary()


@pytest.fixture
def ornstein():
    return gallery.get_spec("ornstein")


@pytest.fixture
def fhc_binary():
    return gallery.get_spec("fhc-binary")


@pytest.fixture
def hc_not_mixing():
    return gallery.get_spec("hc-not-mixing")


def random_rational_vector(rng, m, q=720720):
    """Random strictly positive probability vector with denominator q."""
    cuts = sorted(rng.choice(np.arange(1, q), size=m - 1, replace=False).tolist())
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return [Fraction(int(p), q) for p in parts]


def random_listed_vectors(rng, depth, float_coords=(), m_range=(2, 5), q=360):
    """Random positive weight vectors over the denominator q, one per
    coordinate; the coordinates (1-based) in `float_coords` become floats."""
    out = []
    for i in range(1, depth + 1):
        m = int(rng.integers(*m_range))
        nums = [int(x) for x in rng.integers(1, q // m, size=m - 1)]
        v = [Fraction(x, q) for x in nums + [q - sum(nums)]]
        out.append([float(x) for x in v] if i in float_coords else v)
    return out
