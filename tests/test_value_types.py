"""The package's value types: immutable, with the reprs and equality their
callers read."""

from fractions import Fraction as F

import pytest

from tenalg import (
    DenseTensor,
    PiecewiseLinearPath,
    RankDecomposition,
    Signature,
    TensorExpr,
    TruncatedTensor,
    parse,
    segment_signature,
    unit,
)
from tenalg.expr import SlotVector, Term
from tenalg.scalars import REAL

_DEC = RankDecomposition(1, ((F(1), F(2)),), ((F(3),),), "rational")
_SIG = segment_signature([1.0, 2.0], 1)
_TERM = Term(F(2), (SlotVector([("a", F(1))]),))
_EXPR = parse("a@b - 2 c@d")

_VALUES = [
    (RankDecomposition, _DEC, "r"),
    (Signature, _SIG, "interval"),
    (Term, _TERM, "coefficient"),
    (TensorExpr, _EXPR, "terms"),
    (DenseTensor, DenseTensor.vector([1, 2]), "coeffs"),
    (TruncatedTensor, unit(2, 1), "flats"),
    (PiecewiseLinearPath, PiecewiseLinearPath([[0, 0], [1, 1]]), "points"),
    (SlotVector, SlotVector([("a", F(1))]), "entries"),
]


@pytest.mark.parametrize("cls, value, field", _VALUES, ids=[cls.__name__ for cls, _, _ in _VALUES])
@pytest.mark.parametrize("name", ["field", "other"], ids=["own", "new"])
def test_attribute_assignment_raises(cls, value, field, name):
    assert type(value) is cls
    with pytest.raises(AttributeError):
        setattr(value, field if name == "field" else name, None)


@pytest.mark.parametrize(
    "value, field",
    [(_DEC, "d1"), (_SIG, "value"), (_TERM, "slots"), (_EXPR, "terms")]
    + [(value, field) for _, value, field in _VALUES[4:]],
    ids=["RankDecomposition", "Signature", "Term", "TensorExpr"] + [cls.__name__ for cls, _, _ in _VALUES[4:]],
)
def test_record_and_expression_fields_cannot_be_deleted(value, field):
    with pytest.raises(AttributeError):
        delattr(value, field)
    repr(value)  # the field is still there


@pytest.mark.parametrize(
    "value, text",
    [
        (
            _DEC,
            "RankDecomposition(r=1, d1=((Fraction(1, 1), Fraction(2, 1)),), d2=((Fraction(3, 1),),), "
            "field='rational')",
        ),
        (_SIG, "Signature(value=TruncatedTensor(d=2, N=1, field='real', [[1.0], [1.0, 2.0]]), interval=(0.0, 1.0))"),
        (_TERM, "Term(coefficient=Fraction(2, 1), slots=(SlotVector((('a', Fraction(1, 1)),)),))"),
        (
            _EXPR,
            "TensorExpr(terms=(Term(coefficient=Fraction(1, 1), slots=(SlotVector((('a', Fraction(1, 1)),)), "
            "SlotVector((('b', Fraction(1, 1)),)))), Term(coefficient=Fraction(-2, 1), "
            "slots=(SlotVector((('c', Fraction(1, 1)),)), SlotVector((('d', Fraction(1, 1)),))))), "
            "field='rational')",
        ),
        (TensorExpr((), REAL), "TensorExpr(terms=(), field='real')"),
    ],
    ids=["RankDecomposition", "Signature", "Term", "TensorExpr", "TensorExpr-zero"],
)
def test_repr_names_every_field(value, text):
    assert repr(value) == text


def test_records_take_keywords_and_compare_by_fields():
    assert RankDecomposition(r=1, d1=_DEC.d1, d2=_DEC.d2, field="rational") == _DEC
    assert Signature(value=_SIG.value, interval=(0.0, 1.0)) == _SIG
    assert Term(coefficient=F(2), slots=_TERM.slots) == _TERM
    assert Term(F(3), _TERM.slots) != _TERM
    assert TensorExpr(terms=_EXPR.terms) == _EXPR and _EXPR.field == "rational"


@pytest.mark.parametrize(
    "other, equal",
    [
        (_EXPR, True),
        (TensorExpr(_EXPR.terms[::-1]), True),
        (parse("a@b + 2 c@d"), False),
        (parse("a@b"), False),
        (TensorExpr(_EXPR.terms, REAL), False),
        (TensorExpr(()), False),
        (_EXPR.terms, False),
    ],
    ids=["same", "reordered", "other-coefficient", "fewer-terms", "other-field", "zero", "tuple"],
)
def test_tensor_expr_equality_is_on_term_multisets_and_not_equal_is_its_negation(other, equal):
    assert (_EXPR == other) is (other == _EXPR) is equal
    assert (_EXPR != other) is (other != _EXPR) is (not equal)
