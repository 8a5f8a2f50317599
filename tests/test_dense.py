from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenalg import (
    COMPLEX,
    REAL,
    DenseTensor,
    FieldMismatchError,
    PiecewiseLinearPath,
    ShapeMismatchError,
    add,
    basis_vector,
    factor_heuristic_higher_order,
    multi_tensor_product,
    oracle_signature,
    parse,
    project,
    scale,
    tensor_product,
    unit,
)
from tenalg.dense import load_tensor, dump_tensor


def vec(*xs):
    return DenseTensor.vector(list(xs))


def mat(rows):
    return DenseTensor.matrix(rows)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def tensors(draw, min_order=0, max_order=3):
    order = draw(st.integers(min_order, max_order))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(order))
    size = 1
    for d in shape:
        size *= d
    return DenseTensor(shape, [draw(rationals) for _ in range(size)])


@st.composite
def same_shape_pairs(draw):
    a = draw(tensors())
    b = DenseTensor(a.shape, [draw(rationals) for _ in range(a.size)])
    return a, b


# -- basis vectors -----------------------------------------------------------


def test_basis_vector_examples():
    assert basis_vector(3, 1) == vec(1, 0, 0)
    assert basis_vector(1, 1) == vec(1)
    assert basis_vector(2, 2) == vec(0, 1)


def test_basis_vector_out_of_range():
    with pytest.raises(IndexError):
        basis_vector(3, 0)
    with pytest.raises(IndexError):
        basis_vector(3, 4)


# -- add / scale ---------------------------------------------------------------


def test_add_vectors():
    assert add(vec(3, -1, 4), vec(-2, 1, 1)) == vec(1, 0, 5)


def test_add_zero_identity():
    t = mat([[1, 2], [3, 4]])
    assert add(t, DenseTensor.zeros(t.shape)) == t


def test_add_additive_inverse():
    t = mat([[3, 4], [6, 8]])
    assert add(t, mat([[-3, -4], [-6, -8]])) == DenseTensor.zeros((2, 2))


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        add(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ShapeMismatchError):
        add(vec(1, 2), mat([[1, 2]]))


def test_add_field_mismatch():
    with pytest.raises(FieldMismatchError):
        add(vec(1, 2), DenseTensor.vector([1.0, 2.0], REAL))


def test_scale_examples():
    assert scale(2, vec(1, 2)) == vec(2, 4)
    t = mat([[1, 2], [3, 4]])
    assert scale(0, t) == DenseTensor.zeros((2, 2))
    assert scale(F(1, 2), mat([[1, 0], [1, 1]])) == mat(
        [[F(1, 2), 0], [F(1, 2), F(1, 2)]]
    )


# -- tensor product ------------------------------------------------------------


def test_tensor_product_vectors():
    assert tensor_product(vec(1, 2), vec(3, 4)) == mat([[3, 4], [6, 8]])


def test_tensor_product_scalar_unit():
    t = mat([[1, 2], [3, 4]])
    one = DenseTensor.scalar(1)
    assert tensor_product(one, t) == t
    assert tensor_product(t, one) == t


def test_tensor_product_lambda_squared():
    u, v, lam = vec(1, 0), vec(0, 1), 3
    lhs = tensor_product(scale(lam, u), scale(lam, v))
    rhs = scale(lam * lam, tensor_product(u, v))
    assert lhs == rhs == mat([[0, 9], [0, 0]])


def test_multi_tensor_product_single():
    u = vec(1, 2, 3)
    assert multi_tensor_product([u]) == u


def test_multi_tensor_product_two():
    assert multi_tensor_product([vec(1, 1), vec(1, 0)]) == mat([[1, 0], [1, 0]])


def test_multi_tensor_product_order3():
    t = multi_tensor_product([vec(1, 0), vec(1, 0), vec(1, -1)])
    assert t.shape == (2, 2, 2)
    assert t[1, 1, 1] == 1
    assert t[1, 1, 2] == -1
    assert all(t[i, j, k] == 0 for i in (1, 2) for j in (1, 2) for k in (1, 2)
               if (i, j) != (1, 1))


def test_multi_tensor_product_empty():
    with pytest.raises(ValueError):
        multi_tensor_product([])


# -- component access ----------------------------------------------------------


def test_component_access_one_based():
    t = mat([[1, 2], [3, 4]])
    assert t[1, 1] == 1 and t[1, 2] == 2 and t[2, 1] == 3 and t[2, 2] == 4
    assert vec(5, 6)[2] == 6


def test_tolists_nests_row_major():
    t = DenseTensor((2, 3, 2), list(range(12)))
    assert t.tolists() == [[[0, 1], [2, 3], [4, 5]], [[6, 7], [8, 9], [10, 11]]]
    assert vec(5, 6).tolists() == [5, 6]
    assert DenseTensor.scalar(7).tolists() == 7


def test_component_access_errors():
    t = mat([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        t[0, 1]
    with pytest.raises(IndexError):
        t[1, 3]
    with pytest.raises(IndexError):
        t[1]


def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        DenseTensor((0,), [])
    with pytest.raises(ShapeMismatchError):
        DenseTensor((2,), [1])


class _Two:
    def __index__(self):
        return 2


def test_float_dimension_is_refused():
    with pytest.raises(ShapeMismatchError, match="integers"):
        DenseTensor.zeros((2.7,))


def test_bool_dimension_is_refused():
    with pytest.raises(ShapeMismatchError, match="integers"):
        DenseTensor((True, 2), [0, 0])


def test_string_dimension_is_refused():
    with pytest.raises(ShapeMismatchError, match="integers"):
        DenseTensor(("3",), [0, 0, 0])


def test_index_dimension_is_accepted_as_int():
    shape = DenseTensor.zeros((_Two(), 3)).shape
    assert shape == (2, 3) and all(type(d) is int for d in shape)


# every size argument follows the rule of a shape entry, with ValueError
SIZE_ARGUMENTS = {
    "project M": lambda n: project(unit(2, 2), n).N,
    "oracle_signature steps": lambda n: oracle_signature(PiecewiseLinearPath([[0.0], [1.0]]), 1, steps=n).depth,
    "factor_heuristic_higher_order max_rank": lambda n: len(factor_heuristic_higher_order(parse("u1@v1@w1"), n)[0].terms),
}


@pytest.mark.parametrize("size", [True, 1.0, "1"])
@pytest.mark.parametrize("call", SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS.keys())
def test_size_arguments_refuse_a_bool_a_float_and_a_string(call, size):
    with pytest.raises(ValueError, match="sizes must be integers"):
        call(size)


@pytest.mark.parametrize("call", SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS.keys())
def test_size_arguments_accept_an_index_type(call):
    assert type(call(_Two())) is int


# -- algebraic laws --------------------------------------------------------------


@settings(deadline=None)
@given(same_shape_pairs(), tensors())
def test_bilinearity_left(pair, b):
    a1, a2 = pair
    assert tensor_product(add(a1, a2), b) == add(tensor_product(a1, b), tensor_product(a2, b))


@settings(deadline=None)
@given(tensors(), same_shape_pairs())
def test_bilinearity_right(a, pair):
    b1, b2 = pair
    assert tensor_product(a, add(b1, b2)) == add(tensor_product(a, b1), tensor_product(a, b2))


@settings(deadline=None)
@given(tensors(), tensors())
def test_zero_absorption(a, b):
    zero_a = DenseTensor.zeros(a.shape)
    prod_shape = a.shape + b.shape
    assert tensor_product(zero_a, b) == DenseTensor.zeros(prod_shape)
    assert tensor_product(a, DenseTensor.zeros(b.shape)) == DenseTensor.zeros(prod_shape)


@settings(deadline=None)
@given(same_shape_pairs(), same_shape_pairs())
def test_four_term_expansion(left, right):
    u1, u2 = left
    v1, v2 = right
    lhs = tensor_product(add(u1, u2), add(v1, v2))
    rhs = add(
        add(tensor_product(u1, v1), tensor_product(u1, v2)),
        add(tensor_product(u2, v1), tensor_product(u2, v2)),
    )
    assert lhs == rhs


@settings(deadline=None)
@given(tensors(), tensors())
def test_shape_concatenation(a, b):
    p = tensor_product(a, b)
    assert p.shape == a.shape + b.shape
    assert p.size == a.size * b.size


@settings(deadline=None)
@given(rationals, tensors(), tensors())
def test_lambda_squared_scaling(lam, a, b):
    lhs = tensor_product(scale(lam, a), scale(lam, b))
    assert lhs == scale(lam * lam, tensor_product(a, b))


def test_non_commutativity_witness():
    u, v = vec(1, 2), vec(3, 4, 5)
    assert tensor_product(u, v).shape == (2, 3)
    assert tensor_product(v, u).shape == (3, 2)


def test_rational_arithmetic_is_exact():
    # adversarial denominators: primes whose products must appear verbatim
    a = vec(F(1, 3), F(2, 7))
    b = vec(F(3, 11), F(5, 13))
    p = tensor_product(a, b)
    assert p[1, 1] == F(1, 11) and p[1, 2] == F(5, 39)
    assert p[2, 1] == F(6, 77) and p[2, 2] == F(10, 91)
    s = add(scale(F(1, 101), p), scale(F(1, 103), p))
    assert s[2, 2] == F(10, 91) * (F(1, 101) + F(1, 103))
    assert all(isinstance(c, F) for c in s.coeffs)


# -- float comparison and field separation ----------------------------------------


def test_float_equality_tolerance():
    a = DenseTensor.vector([1.0, 2.0], REAL)
    b = DenseTensor.vector([1.0 + 5e-10, 2.0], REAL)
    c = DenseTensor.vector([1.0 + 1e-6, 2.0], REAL)
    assert a == b
    assert a != c


def test_mixed_field_never_promotes():
    with pytest.raises(FieldMismatchError):
        tensor_product(vec(1), DenseTensor.vector([1.0], REAL))
    with pytest.raises(FieldMismatchError):
        scale(0.5, vec(1, 2))  # float scalar into a rational tensor


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip_rational():
    t = mat([[F(1, 2), 0], [3, F(-4, 3)]])
    assert load_tensor(dump_tensor(t)) == t


def test_json_round_trip_real():
    t = DenseTensor((2,), [0.5, -1.25], REAL)
    assert load_tensor(dump_tensor(t)) == t


def test_json_round_trip_complex():
    t = DenseTensor((2,), [complex(1, -1), complex(0, 2)], COMPLEX)
    assert load_tensor(dump_tensor(t)) == t


def test_json_rational_strings():
    t = mat([[F(4, 3)]])
    assert '"4/3"' in dump_tensor(t)


@pytest.mark.parametrize(
    "text",
    [
        '{"shape": [2, 2], "field": "rational", "coeffs": ["1", "2", "3"]}',
        '{"shape": [2], "field": "real", "coeffs": [1.0, 2.0, 3.0]}',
        '{"shape": [2], "field": "rational", "coeffs": ["1", 0.5]}',
        '{"shape": [2], "field": "rational", "coeffs": ["1", true]}',
        '{"shape": [2], "field": "real", "coeffs": [1.0, true]}',
        '{"shape": [0], "field": "real", "coeffs": []}',
    ],
    ids=["short", "long", "float-in-rational", "true-in-rational", "true-in-real", "empty-dim"],
)
def test_json_loader_rejects_malformed(text):
    with pytest.raises(ValueError):
        load_tensor(text)
