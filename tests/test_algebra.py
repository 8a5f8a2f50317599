import itertools
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenalg import (
    DenseTensor,
    NotInvertibleError,
    TruncatedTensor,
    basis_word,
    concat_product,
    inverse,
    project,
    tensor_product,
    truncated_dim,
    unit,
    word_to_index,
)
from tenalg.algebra import dump_tt, load_tt, tt_from_json
from tenalg.scalars import COMPLEX, REAL
from tenalg.signature import PiecewiseLinearPath, oracle_signature, segment_signature

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def tt(d, N, flat_levels):
    return TruncatedTensor.from_flat_levels(d, N, flat_levels)


@st.composite
def elements(draw, d=None, N=None, nonzero_scalar=False):
    d = d if d is not None else draw(st.integers(1, 3))
    N = N if N is not None else draw(st.integers(0, 3))
    levels = []
    for n in range(N + 1):
        levels.append([draw(rationals) for _ in range(d**n)])
    if nonzero_scalar and levels[0][0] == 0:
        levels[0][0] = F(1)
    return tt(d, N, levels)


@st.composite
def element_pairs(draw, count=2, nonzero_scalar=False):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(0, 3))
    return tuple(
        draw(elements(d=d, N=N, nonzero_scalar=nonzero_scalar)) for _ in range(count)
    )


# -- unit ----------------------------------------------------------------------


# (1, 2000) holds only 2001 coefficients, but one product of two such
# elements makes two million multiply-adds
@pytest.mark.parametrize("d, N", [(3, 20), (4, 15), (2, 10**9), (1, 10**9), (1, 2000)])
def test_budget_refuses_oversized_algebras_before_allocating(address_space_cap, d, N):
    with pytest.raises(ValueError, match="budget"):
        unit(d, N)
    with pytest.raises(ValueError, match="budget"):
        basis_word(d, N, [1])
    path = PiecewiseLinearPath([[0.0] * d, [1.0] * d])
    with pytest.raises(ValueError, match="budget"):
        oracle_signature(path, N, steps=1)
    with pytest.raises(ValueError, match="budget"):
        segment_signature([1.0] * d, N)


def test_d1_element_holds_one_flat_list_per_level():
    # a shape tuple (1,) * n per level would take 8 MB here
    tracemalloc.start()
    try:
        x = unit(1, 1400)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert x.N == 1400 and held < 1 << 20


def test_reprs_and_nested_lists_have_no_depth_limit():
    # each once took one Python frame per tensor order, so both reprs raised
    # RecursionError
    head = "TruncatedTensor(d=1, N=1400, field='rational', [[Fraction(1, 1)], [Fraction(0, 1)], "
    assert repr(unit(1, 1400)).startswith(head)
    deep = DenseTensor((1,) * 600, [1])
    assert repr(deep).startswith("DenseTensor(shape=(1, 1, ")
    nested = deep.tolists()
    for _ in range(600):
        assert type(nested) is list and len(nested) == 1
        nested = nested[0]
    assert nested == 1


def test_unit_shape():
    e = unit(2, 2)
    assert e.scalar_part() == 1
    assert e.level(1) == DenseTensor.zeros((2,))
    assert e.level(2) == DenseTensor.zeros((2, 2))
    assert unit(1, 0).levels[0] == DenseTensor.scalar(1)


def test_level_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError) as info:
        TruncatedTensor(2, 1, [DenseTensor.scalar(1), DenseTensor.vector([1, 2, 3])])
    assert str(info.value) == "level 1 must have shape (2,), got (3,)"


def test_word_longer_than_the_truncation_level_is_refused():
    with pytest.raises(IndexError) as info:
        unit(2, 1).word_coefficient((1, 2))
    assert str(info.value) == "word of length 2 exceeds truncation level 1"


def test_equality_against_another_type_or_d_or_N_or_field():
    x = unit(2, 1)
    assert x.__eq__(1) is NotImplemented and x != 1
    assert x != unit(3, 1)
    assert x != unit(2, 2)
    assert x != unit(2, 1, REAL)


def test_level_index_out_of_range():
    x = unit(2, 2)
    assert [x.level(n).shape for n in range(3)] == [(), (2,), (2, 2)]
    for n in (-1, -3, 3):
        with pytest.raises(IndexError, match="out of range 0..2"):
            x.level(n)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: unit(0, 2), ValueError),
        (lambda: unit(2, -1), ValueError),
        (lambda: unit(2, 2, "integer"), ValueError),
        (lambda: basis_word(2, 2, (1,), "integer"), ValueError),
        (lambda: basis_word(2, 2, (3,)), IndexError),
        (lambda: basis_word(2, 1, (1, 1)), IndexError),
    ],
)
def test_unit_and_basis_word_check_arguments(build, error):
    with pytest.raises(error):
        build()


@settings(deadline=None)
@given(elements())
def test_unit_laws(x):
    e = unit(x.d, x.N)
    assert concat_product(e, x) == x
    assert concat_product(x, e) == x


# -- words ----------------------------------------------------------------------


def test_word_to_index_examples():
    assert word_to_index((1, 1, 1), 3) == 0
    assert word_to_index((1,), 5) == 0
    assert word_to_index((1, 2), 2) == 1
    assert word_to_index((2, 2), 2) == 3
    assert word_to_index((), 2) == 0


def test_word_to_index_is_lexicographic_bijection():
    for d in (1, 2, 3):
        for n in range(4):
            words = list(itertools.product(range(1, d + 1), repeat=n))
            indices = [word_to_index(w, d) for w in words]
            assert indices == list(range(d**n))


def test_word_to_index_rejects_bad_letter():
    with pytest.raises(IndexError):
        word_to_index((1, 3), 2)
    with pytest.raises(IndexError):
        word_to_index((0,), 2)


def test_concat_is_word_concatenation():
    e12 = basis_word(3, 3, (1, 2))
    e3 = basis_word(3, 3, (3,))
    assert concat_product(e12, e3) == basis_word(3, 3, (1, 2, 3))


def test_word_coefficient():
    x = basis_word(2, 2, (2, 1))
    assert x.word_coefficient((2, 1)) == 1
    assert x.word_coefficient((1, 2)) == 0


# -- product ---------------------------------------------------------------------


def test_product_level2_fixture():
    x = tt(2, 2, [[2], [1, 0], [0, 0, 0, 0]])
    y = tt(2, 2, [[3], [0, 1], [0, 0, 0, 0]])
    assert concat_product(x, y) == tt(2, 2, [[6], [3, 2], [0, 1, 0, 0]])


def test_product_incompatible():
    with pytest.raises(ValueError):
        concat_product(unit(2, 2), unit(2, 3))
    with pytest.raises(ValueError):
        concat_product(unit(2, 2), unit(3, 2))


def test_product_field_mismatch():
    from tenalg import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        concat_product(unit(2, 2), unit(2, 2, "real"))


def test_product_not_commutative():
    x = tt(2, 2, [[0], [1, 0], [0, 0, 0, 0]])
    y = tt(2, 2, [[0], [0, 1], [0, 0, 0, 0]])
    assert concat_product(x, y) != concat_product(y, x)


def test_mul_operator_is_concat_product():
    # the library tour in the README multiplies with *
    x = tt(2, 2, [[0], [1, 0], [0, 0, 0, 0]])
    y = tt(2, 2, [[0], [0, 1], [0, 0, 0, 0]])
    assert x * y == concat_product(x, y) and y * x == concat_product(y, x)


@settings(deadline=None)
@given(element_pairs(count=3))
def test_associativity(xyz):
    x, y, z = xyz
    assert concat_product(concat_product(x, y), z) == concat_product(x, concat_product(y, z))


@settings(deadline=None)
@given(element_pairs(count=3))
def test_distributivity(xyz):
    x, y, z = xyz
    assert concat_product(x + y, z) == concat_product(x, z) + concat_product(y, z)
    assert concat_product(z, x + y) == concat_product(z, x) + concat_product(z, y)


@settings(deadline=None)
@given(rationals, element_pairs())
def test_scalar_bilinearity(lam, xy):
    x, y = xy
    expected = concat_product(x, y).scale(lam)
    assert concat_product(x.scale(lam), y) == expected
    assert concat_product(x, y.scale(lam)) == expected


# -- inverse ----------------------------------------------------------------------


def test_inverse_fixture():
    x = tt(2, 2, [[2], [1, 0], [1, 0, 0, 0]])
    assert inverse(x) == tt(2, 2, [[F(1, 2)], [F(-1, 4), 0], [F(-1, 8), 0, 0, 0]])


def test_inverse_of_unit():
    assert inverse(unit(2, 3)) == unit(2, 3)


def test_inverse_requires_nonzero_scalar():
    x = tt(2, 2, [[0], [1, 1], [1, 0, 0, 1]])
    with pytest.raises(NotInvertibleError):
        inverse(x)


@settings(deadline=None)
@given(elements(nonzero_scalar=True))
def test_two_sided_inverse(x):
    e = unit(x.d, x.N)
    y = inverse(x)
    assert concat_product(x, y) == e
    assert concat_product(y, x) == e


@settings(deadline=None)
@given(elements(N=2, nonzero_scalar=True))
def test_inverse_matches_level2_closed_form(x):
    a = x.scalar_part()
    v = x.level(1)
    A = x.level(2)
    inv_a = 1 / a
    expected = TruncatedTensor(
        x.d,
        2,
        [
            DenseTensor.scalar(inv_a),
            DenseTensor(v.shape, [-inv_a**2 * c for c in v.coeffs]),
            DenseTensor(
                A.shape,
                [
                    -inv_a**2 * c + inv_a**3 * t
                    for c, t in zip(A.coeffs, tensor_product(v, v).coeffs)
                ],
            ),
        ],
    )
    assert inverse(x) == expected


def geometric_inverse(x):
    """Reference inverse: (1/a) sum_{j=0}^{N} (1 - x/a)^j, a finite series
    because 1 - x/a has no level-0 part."""
    inv_a = 1 / x.scalar_part()
    e = unit(x.d, x.N, x.field)
    y = e - x.scale(inv_a)
    acc = power = e
    for _ in range(x.N):
        power = concat_product(power, y)
        acc = acc + power
    return acc.scale(inv_a)


float_coeffs = {
    REAL: st.floats(-1, 1),
    COMPLEX: st.complex_numbers(max_magnitude=1),
}


@st.composite
def float_elements(draw, field):
    """Elements over ``field`` with d <= 3, N <= 5 and |level 0| in [1, 2]."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(0, 5))
    coeff = float_coeffs[field]
    levels = [[draw(coeff) for _ in range(d**n)] for n in range(N + 1)]
    a = draw(st.floats(1, 2)) * draw(st.sampled_from([1, -1]))
    if field == COMPLEX:
        a *= complex(*draw(st.sampled_from([(1, 0), (0, 1), (0.6, 0.8)])))
    levels[0] = [a]
    return TruncatedTensor.from_flat_levels(d, N, levels, field)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_two_sided_inverse_float_fields(field, data):
    x = data.draw(float_elements(field))
    e = unit(x.d, x.N, field)
    y = inverse(x)
    assert concat_product(x, y) == e
    assert concat_product(y, x) == e


@settings(deadline=None)
@given(elements(nonzero_scalar=True))
def test_inverse_matches_geometric_series_exactly(x):
    assert inverse(x) == geometric_inverse(x)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_inverse_matches_geometric_series_float_fields(field, data):
    x = data.draw(float_elements(field))
    assert inverse(x) == geometric_inverse(x)


def test_inverse_level_zero_only():
    assert inverse(tt(3, 0, [[F(-4, 3)]])) == tt(3, 0, [[F(-3, 4)]])
    y = inverse(TruncatedTensor.from_flat_levels(2, 0, [[0.5]], REAL))
    assert y.N == 0 and y.scalar_part() == 2.0


def test_inverse_one_letter_is_power_series():
    # d = 1 is the power-series ring truncated at t^N: 1/(1 + t) = sum (-t)^n
    assert inverse(tt(1, 4, [[1], [1], [0], [0], [0]])) == tt(1, 4, [[1], [-1], [1], [-1], [1]])
    # 1/(2 - t) = sum t^n / 2^(n+1)
    x = tt(1, 3, [[2], [-1], [0], [0]])
    assert inverse(x) == tt(1, 3, [[F(1, 2)], [F(1, 4)], [F(1, 8)], [F(1, 16)]])


# -- rational kernels over ints ------------------------------------------------------
#
# concat_product and inverse compute rational results over ints on a common
# denominator; these tests hold them to plain Fraction arithmetic.

# distinct primes, so their lcm is their product and runs past a machine word
LARGE_PRIMES = [1_000_003, 998_244_353, 2**61 - 1, 10**18 + 9]
wide_rationals = st.builds(
    F,
    st.integers(-(10**6), 10**6),
    st.sampled_from([1, 2, 3, 7, *LARGE_PRIMES]) | st.integers(1, 10**6),
)


@st.composite
def wide_elements(draw, d, N):
    """Level 0 a non-zero rational of either sign; each level above is
    all-zero one time in four."""
    levels = [[draw(wide_rationals.filter(bool))]]
    for n in range(1, N + 1):
        if draw(st.integers(0, 3)) == 0:
            levels.append([F(0)] * d**n)
        else:
            levels.append(draw(st.lists(wide_rationals, min_size=d**n, max_size=d**n)))
    return tt(d, N, levels)


@st.composite
def wide_pairs(draw):
    d, N = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return draw(wide_elements(d, N)), draw(wide_elements(d, N))


def fraction_product(x, y):
    """The convolution formula, term by term in Fractions."""
    d, N = x.d, x.N
    out = []
    for n in range(N + 1):
        w = [F(0)] * d**n
        for k in range(n + 1):
            a, b = x.level(k).coeffs, y.level(n - k).coeffs
            for i, av in enumerate(a):
                for j, bv in enumerate(b):
                    w[i * len(b) + j] += av * bv
        out.append(w)
    return out


def fraction_inverse(x):
    """The levelwise recursion y_n = -(1/a) sum_k x_k (x) y_{n-k} in Fractions."""
    d, N = x.d, x.N
    a = x.scalar_part()
    ys = [[1 / a]]
    for n in range(1, N + 1):
        w = [F(0)] * d**n
        for k in range(1, n + 1):
            a_k, b = x.level(k).coeffs, ys[n - k]
            for i, av in enumerate(a_k):
                for j, bv in enumerate(b):
                    w[i * len(b) + j] += av * bv
        ys.append([-c / a for c in w])
    return ys


def _flat_fraction_levels(x):
    levels = [lvl.coeffs for lvl in x.levels]
    assert all(type(c) is F for lvl in levels for c in lvl)
    return levels


@settings(deadline=None, max_examples=100)
@given(wide_pairs())
def test_rational_product_and_inverse_match_fraction_reference(xy):
    x, y = xy
    assert _flat_fraction_levels(concat_product(x, y)) == fraction_product(x, y)
    assert _flat_fraction_levels(inverse(x)) == fraction_inverse(x)


@settings(deadline=None, max_examples=100)
@given(wide_pairs())
def test_rational_inverse_is_exact_two_sided(xy):
    x, _ = xy
    y = inverse(x)
    e = unit(x.d, x.N)
    assert concat_product(x, y) == e == concat_product(y, x)
    assert _flat_fraction_levels(concat_product(x, y)) == [lvl.coeffs for lvl in e.levels]


# -- projection --------------------------------------------------------------------


def test_project_identity_and_scalar():
    x = tt(2, 2, [[5], [1, 2], [1, 0, 0, 1]])
    assert project(x, 2) == x
    assert project(x, 0).levels[0] == DenseTensor.scalar(5)


def test_project_out_of_range():
    with pytest.raises(ValueError):
        project(unit(2, 2), 3)


@settings(deadline=None)
@given(element_pairs(), st.integers(0, 3))
def test_projection_is_product_morphism(xy, M):
    x, y = xy
    M = min(M, x.N)
    lhs = project(concat_product(x, y), M)
    rhs = concat_product(project(x, M), project(y, M))
    assert lhs == rhs


# -- dimension ----------------------------------------------------------------------


def test_truncated_dim_values():
    assert truncated_dim(2, 2) == 7
    assert truncated_dim(3, 0) == 1
    assert truncated_dim(7, 0) == 1
    assert truncated_dim(3, 3) == 40
    assert truncated_dim(1, 4) == 5


def test_truncated_dim_refuses_a_float_size():
    with pytest.raises(ValueError, match="integers"):
        truncated_dim(2.5, 3)


def test_from_flat_levels_refuses_a_float_size():
    with pytest.raises(ValueError, match="integers"):
        TruncatedTensor.from_flat_levels(2.0, 1, [[1], [0, 0]])
    with pytest.raises(ValueError, match="integers"):
        TruncatedTensor.from_flat_levels(2, 1.0, [[1], [0, 0]])


def test_sizes_refuse_bools_and_strings():
    for d, N in ((True, 2), (2, True), ("2", 2), (2, "2")):
        with pytest.raises(ValueError, match="integers"):
            truncated_dim(d, N)


def test_truncated_dim_matches_word_enumeration():
    for d in (1, 2, 3):
        for N in range(5):
            count = sum(
                1
                for n in range(N + 1)
                for _ in itertools.product(range(1, d + 1), repeat=n)
            )
            assert truncated_dim(d, N) == count


# -- degree ------------------------------------------------------------------------


def test_degree():
    assert tt(2, 2, [[0], [0, 0], [0, 0, 0, 0]]).degree() == 0
    assert tt(2, 2, [[1], [0, 0], [0, 0, 0, 0]]).degree() == 0
    assert tt(2, 2, [[1], [1, 0], [0, 0, 0, 0]]).degree() == 1
    assert tt(2, 2, [[0], [0, 0], [0, 1, 0, 0]]).degree() == 2


# -- JSON --------------------------------------------------------------------------


def test_json_round_trip():
    x = tt(2, 2, [[F(1, 2)], [1, -2], [0, F(3, 4), 0, 1]])
    assert load_tt(dump_tt(x)) == x


def test_json_ignores_extra_keys():
    x = unit(2, 1)
    obj = {"d": 2, "N": 1, "field": "rational", "levels": [["1"], ["0", "0"]],
           "interval": [0.0, 1.0]}
    assert tt_from_json(obj) == x


def test_json_field_defaults_to_rational_and_the_message_says_so():
    assert load_tt('{"d": 2, "N": 1, "levels": [["1"], ["0", "0"]]}') == unit(2, 1)
    with pytest.raises(ValueError) as info:
        load_tt('{"d": 2, "N": 1, "field": "rational"}')
    assert str(info.value) == (
        "truncated-tensor JSON must have 'd', 'N' and 'levels' keys; 'field' defaults to 'rational'"
    )


def test_json_golden_shape():
    text = dump_tt(unit(2, 2))
    assert text == (
        '{"d": 2, "N": 2, "field": "rational", '
        '"levels": [["1"], ["0", "0"], ["0", "0", "0", "0"]]}'
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 2, "N": 2, "field": "rational", "levels": [["1"], ["0", "0"]]}',
        '{"d": 2, "N": 1, "field": "rational", "levels": [["1"], ["0", "0"], ["0", "0", "0", "0"]]}',
        '{"d": 2, "N": 1, "field": "rational", "levels": [["1"], ["0", "0", "0"]]}',
        '{"d": 2, "N": 1, "field": "rational", "levels": [[], ["0", "0"]]}',
        '{"d": 2, "N": 1, "field": "rational", "levels": [["1"], ["0", 0.5]]}',
        '{"d": 2, "N": 1, "field": "real", "levels": [[1.0], [true, 0.0]]}',
    ],
    ids=["few-levels", "many-levels", "long-level", "empty-level", "float-in-rational",
         "true-in-real"],
)
def test_json_loader_rejects_malformed(text):
    with pytest.raises(ValueError):
        load_tt(text)
