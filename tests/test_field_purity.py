"""Every kernel returns coefficients of exactly its field's type.

Kernels build their results without re-coercing coefficients, so an ``int``
or a value from another field that slipped into a result would stay there.
Inputs are built from ``int`` values on purpose: the public constructors
must convert them, and the kernels must never reintroduce them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenalg import (
    COMPLEX,
    RATIONAL,
    REAL,
    DenseTensor,
    PiecewiseLinearPath,
    TruncatedTensor,
    add,
    basis_word,
    concat_product,
    inverse,
    oracle_signature,
    path_signature,
    project,
    scale,
    segment_signature,
    tensor_product,
    unit,
)
from tenalg import scalars

FIELD_TYPE = {RATIONAL: Fraction, REAL: float, COMPLEX: complex}
ints = st.integers(-5, 5)


def coefficients(value):
    if isinstance(value, DenseTensor):
        return list(value.coeffs)
    return [c for lvl in value.levels for c in lvl.coeffs]


def assert_pure(value, field):
    assert value.field == field
    for c in coefficients(value):
        assert type(c) is FIELD_TYPE[field], (c, field)


@pytest.mark.parametrize(
    "field, zero, one",
    [(RATIONAL, Fraction(0), Fraction(1)), (REAL, 0.0, 1.0), (COMPLEX, 0j, 1 + 0j)],
)
def test_field_constants_have_the_field_type(field, zero, one):
    assert type(scalars.zero(field)) is FIELD_TYPE[field] and scalars.zero(field) == zero
    assert type(scalars.one(field)) is FIELD_TYPE[field] and scalars.one(field) == one


@pytest.mark.parametrize("constant", ["zero", "one"])
def test_field_constants_refuse_an_unknown_field(constant):
    with pytest.raises(ValueError, match="unknown scalar field 'bogus'"):
        getattr(scalars, constant)("bogus")


@st.composite
def dense_pairs(draw, field):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, 2))))
    size = 1
    for d in shape:
        size *= d
    a = DenseTensor(shape, [draw(ints) for _ in range(size)], field)
    b = DenseTensor(shape, [draw(ints) for _ in range(size)], field)
    return a, b


@st.composite
def tt_pairs(draw, field):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(0, 3))

    def element():
        levels = [[draw(ints) for _ in range(d**n)] for n in range(N + 1)]
        levels[0] = [draw(st.sampled_from([-2, -1, 1, 2]))]
        return TruncatedTensor.from_flat_levels(d, N, levels, field)

    return element(), element()


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_dense_kernels_stay_in_field(field, data):
    a, b = data.draw(dense_pairs(field))
    lam = data.draw(ints)
    for value in (add(a, b), a + b, a - b, -a, scale(lam, a), tensor_product(a, b)):
        assert_pure(value, field)


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_algebra_kernels_stay_in_field(field, data):
    x, y = data.draw(tt_pairs(field))
    lam = data.draw(ints)
    d, N = x.d, x.N
    word = data.draw(st.lists(st.integers(1, d), max_size=N))
    results = [
        x + y,
        x - y,
        x.scale(lam),
        concat_product(x, y),
        inverse(x),
        project(x, data.draw(st.integers(0, N))),
        unit(d, N, field),
        basis_word(d, N, word, field),
    ]
    for value in results:
        assert_pure(value, field)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(ints, min_size=d, max_size=d), min_size=1, max_size=4)
    ),
    st.integers(0, 4),
)
def test_signatures_stay_real(points, N):
    path = PiecewiseLinearPath(points)
    increment = [q - p for p, q in zip(points[0], points[-1])]
    for sig in (
        segment_signature(increment, N),
        path_signature(path, N),
        path_signature(path, N, 0.25, 0.75),
        oracle_signature(path, N, steps=7),
    ):
        assert_pure(sig.value, REAL)
