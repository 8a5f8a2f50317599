import io
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenalg import (
    DenseTensor,
    FieldMismatchError,
    PiecewiseLinearPath,
    concat_product,
    inverse,
    oracle_signature,
    path_signature,
    project,
    segment_signature,
    unit,
)
from tenalg.scalars import REAL, close
from tenalg.signature import read_path_csv


def random_path(seed, segments=3, d=2):
    rng = random.Random(seed)
    return PiecewiseLinearPath(
        [[rng.uniform(0, 1) for _ in range(d)] for _ in range(segments + 1)]
    )


# -- single segment -----------------------------------------------------------


def test_segment_zero_increment_is_unit():
    sig = segment_signature([0.0, 0.0], 3)
    assert sig.value == unit(2, 3, REAL)


def test_segment_d1_depth3():
    sig = segment_signature([1.0], 3)
    flat = [lvl.coeffs[0] for lvl in sig.value.levels]
    assert flat == [1.0, 1.0, 0.5, 1.0 / 6.0]


def test_segment_level2_d2():
    sig = segment_signature([1.0, 2.0], 2)
    assert sig.level(2) == DenseTensor((2, 2), [0.5, 1.0, 1.0, 2.0], REAL)


# -- piecewise paths ------------------------------------------------------------


def test_path_signature_empty_interval():
    p = random_path(1)
    sig = path_signature(p, 3, 0.4, 0.4)
    assert sig.value == unit(2, 3, REAL)


def test_path_signature_invalid_interval():
    p = random_path(1)
    with pytest.raises(ValueError):
        path_signature(p, 2, 0.7, 0.3)
    with pytest.raises(ValueError):
        path_signature(p, 2, -0.1, 0.5)


def test_constant_path_gives_unit_exactly():
    p = PiecewiseLinearPath([[0.3, -0.7]])
    sig = path_signature(p, 3)
    assert [lvl.coeffs for lvl in sig.value.levels] == [
        lvl.coeffs for lvl in unit(2, 3, REAL).levels
    ]


def test_empty_path_rejected():
    with pytest.raises(ValueError) as info:
        PiecewiseLinearPath([])
    assert str(info.value) == "a path needs at least one sample point"


@pytest.mark.parametrize(
    "points, message",
    [
        ([[]], "sample points must have dimension >= 1"),
        ([[1], [1, 2]], "all sample points must share one dimension"),
    ],
    ids=["no-coordinates", "ragged"],
)
def test_path_refusals_name_the_fault(points, message):
    with pytest.raises(ValueError) as info:
        PiecewiseLinearPath(points)
    assert str(info.value) == message


def test_path_parameters_outside_the_unit_interval_are_refused():
    p = PiecewiseLinearPath([[0], [1]])
    with pytest.raises(ValueError) as info:
        p.at(1.5)
    assert str(info.value) == "parameter 1.5 outside [0, 1]"
    with pytest.raises(ValueError) as info:
        path_signature(p, 2, 0.75, 0.25)
    assert str(info.value) == "need 0 <= s <= t <= 1, got s=0.75, t=0.25"


@pytest.mark.parametrize(
    "points", [[["1.5", "2"]], [[True, 0.0]], [[0.0, None]], [[1j, 0.0]]]
)
def test_path_points_enter_the_real_field_through_coerce(points):
    with pytest.raises(FieldMismatchError):
        PiecewiseLinearPath(points)


def test_path_point_beyond_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        PiecewiseLinearPath([[0, 0], [10**400, 1]])
    assert PiecewiseLinearPath([[F(1, 4), 2]]).points == ((0.25, 2.0),)


def test_segment_signature_refuses_a_string_increment():
    with pytest.raises(FieldMismatchError):
        segment_signature(["1.0", "2.0"], 2)
    assert segment_signature([1, 2], 2).interval == (0.0, 1.0)


def test_two_segment_level2():
    p = PiecewiseLinearPath([[0, 0], [1, 0], [1, 1]])
    sig = path_signature(p, 2)
    assert sig.level(2) == DenseTensor((2, 2), [0.5, 1.0, 0.0, 0.5], REAL)


def test_depth2_has_three_levels():
    sig = path_signature(random_path(7), 2)
    assert len(sig.value.levels) == 3
    assert sig.depth == 2


def test_level0_and_level1():
    p = random_path(3)
    for s, t in ((0.0, 1.0), (0.2, 0.9), (0.35, 0.35)):
        sig = path_signature(p, 3, s, t)
        assert sig.value.scalar_part() == 1.0
        expected = [b - a for a, b in zip(p.at(s), p.at(t))]
        lvl1 = sig.level(1)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(lvl1.coeffs, expected))


def test_projection_consistency():
    p = random_path(11)
    full = path_signature(p, 3)
    assert project(full.value, 2) == path_signature(p, 2).value


def test_subinterval_midpoint_of_segment():
    # window that splits segments in half: increment scales linearly
    p = PiecewiseLinearPath([[0, 0], [2, 0]])
    sig = path_signature(p, 1, 0.25, 0.75)
    assert sig.level(1) == DenseTensor.vector([1.0, 0.0], REAL)


# -- algebraic properties ------------------------------------------------------------


@st.composite
def random_walks(draw, step=st.floats(-1, 1)):
    """``(points, N)``: a walk of 1-5 steps in dimension 1-3 and a depth 1-5."""
    d = draw(st.integers(1, 3))
    point = [draw(step) for _ in range(d)]
    points = [point]
    for _ in range(draw(st.integers(1, 5))):
        point = [x + draw(step) for x in point]
        points.append(point)
    return points, draw(st.integers(1, 5))


def flat(x):
    """The coefficients of a truncated tensor, level by level."""
    return [c for level in x.levels for c in level.coeffs]


def assert_close(got, want):
    assert len(got) == len(want)
    assert all(close(REAL, a, b) for a, b in zip(got, want)), (got, want)


@settings(deadline=None, max_examples=100)
@given(random_walks(), st.lists(st.floats(0, 1), min_size=3, max_size=3, unique=True))
def test_chen_identity_splits_a_window_anywhere(walk, window):
    points, N = walk
    path = PiecewiseLinearPath(points)
    s, u, t = sorted(window)
    assume(u * path.segments != round(u * path.segments))  # u is not a grid point
    whole = path_signature(path, N, s, t).value
    halves = concat_product(path_signature(path, N, s, u).value, path_signature(path, N, u, t).value)
    assert_close(flat(halves), flat(whole))


@settings(deadline=None, max_examples=100)
@given(random_walks())
def test_the_reversed_path_has_the_inverse_signature(walk):
    points, N = walk
    forward = path_signature(PiecewiseLinearPath(points), N).value
    backward = path_signature(PiecewiseLinearPath(points[::-1]), N).value
    assert_close(flat(backward), flat(inverse(forward)))


@settings(deadline=None, max_examples=100)
@given(random_walks())
def test_level_two_satisfies_the_shuffle_identity(walk):
    points, N = walk
    sig = path_signature(PiecewiseLinearPath(points), max(N, 2))
    d = len(points[0])
    S1, S2 = sig.level(1).coeffs, sig.level(2).coeffs
    for i in range(d):
        for j in range(d):
            assert close(REAL, S1[i] * S1[j], S2[i * d + j] + S2[j * d + i])


def exact_signature(points, N):
    """Flat levels of Chen's product of the segments' exp(z), over Fractions."""
    d = len(points[0])
    sig = [[F(1)]] + [[F(0)] * d**n for n in range(1, N + 1)]
    for p, q in zip(points, points[1:]):
        z = [b - a for a, b in zip(p, q)]
        seg = [[F(1)]]
        for n in range(1, N + 1):
            seg.append([c * zi / n for c in seg[-1] for zi in z])
        sig = [
            [sum(terms) for terms in zip(*([x * y for x in sig[k] for y in seg[n - k]] for k in range(n + 1)))]
            for n in range(N + 1)
        ]
    return [c for level in sig for c in level]


@settings(deadline=None, max_examples=100)
@given(random_walks(step=st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4]))))
def test_path_signature_agrees_with_an_exact_chen_product(walk):
    points, N = walk
    got = flat(path_signature(PiecewiseLinearPath(points), N).value)
    assert_close(got, [float(c) for c in exact_signature(points, N)])


# -- oracle -----------------------------------------------------------------------


def test_oracle_constant_path():
    p = PiecewiseLinearPath([[1.0], [1.0]])
    for steps in (1, 10, 100):
        sig = oracle_signature(p, 3, steps=steps)
        assert sig.value == unit(1, 3, REAL)


def test_oracle_d1_linear():
    p = PiecewiseLinearPath([[0.0], [1.0]])
    sig = oracle_signature(p, 2, steps=1000)
    assert abs(sig.level(1).coeffs[0] - 1.0) <= 1e-12
    assert abs(sig.level(2).coeffs[0] - 0.5) <= 2e-3


def test_oracle_agrees_with_closed_form():
    for seed in (1, 2, 3):
        p = random_path(seed)
        closed = path_signature(p, 3)
        est = oracle_signature(p, 3, steps=20_000)
        for lvl_c, lvl_e in zip(closed.value.levels, est.value.levels):
            for a, b in zip(lvl_c.coeffs, lvl_e.coeffs):
                assert abs(a - b) <= 1e-3


def test_oracle_agrees_on_subinterval():
    p = random_path(5)
    closed = path_signature(p, 2, 0.2, 0.8)
    est = oracle_signature(p, 2, 0.2, 0.8, steps=20_000)
    for lvl_c, lvl_e in zip(closed.value.levels, est.value.levels):
        for a, b in zip(lvl_c.coeffs, lvl_e.coeffs):
            assert abs(a - b) <= 1e-3


def test_oracle_error_shrinks_with_steps():
    p = random_path(42)
    closed = path_signature(p, 3)
    errors = []
    for steps in (1_000, 10_000, 100_000):
        est = oracle_signature(p, 3, steps=steps)
        errs = []
        for lvl_c, lvl_e in zip(closed.value.levels, est.value.levels):
            errs.extend(abs(a - b) for a, b in zip(lvl_c.coeffs, lvl_e.coeffs))
        errors.append(errs)
    for prev, nxt in zip(errors, errors[1:]):
        for e_prev, e_next in zip(prev, nxt):
            # components already at round-off level cannot keep shrinking
            assert e_next <= e_prev or e_next <= 1e-10


def test_oracle_rejects_bad_steps():
    with pytest.raises(ValueError):
        oracle_signature(random_path(1), 2, steps=0)


@pytest.mark.parametrize("route", [path_signature, oracle_signature])
def test_signatures_reject_negative_depth(route):
    with pytest.raises(ValueError):
        route(random_path(1), -1)


@pytest.mark.parametrize("N", [-1, 2.0, True, "2"])
def test_segment_signature_refuses_a_depth_that_is_not_a_size(N):
    with pytest.raises(ValueError):
        segment_signature([1.0, 2.0], N)


def test_signature_level_out_of_range():
    sig = path_signature(random_path(1), 2)
    assert sig.level(2).shape == (2, 2)
    for n in (-1, 3):
        with pytest.raises(IndexError):
            sig.level(n)


# -- CSV ---------------------------------------------------------------------------


def test_read_csv_plain():
    p = read_path_csv("0,0\n1,0\n1,1\n")
    assert p.points == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))


def test_read_csv_with_header():
    p = read_path_csv(io.StringIO("x,y\n0,0\n0.5,1\n"))
    assert p.points == ((0.0, 0.0), (0.5, 1.0))


def test_read_csv_bad_row():
    with pytest.raises(ValueError):
        read_path_csv("0,0\nbad,row\n")


@pytest.mark.parametrize("row", ["\u0663,1", "1,1_0", "\uff11,0", "\u20031,0"],
                         ids=["arabic-indic", "underscore", "full-width", "em-space"])
def test_read_csv_reads_only_ascii_floats(row):
    """float alone reads non-ASCII digits and underscores: '٣,1_0' was (3, 10)."""
    with pytest.raises(ValueError, match="CSV row 2"):
        read_path_csv("0,0\n" + row + "\n")


def test_read_csv_skips_a_non_ascii_header():
    p = read_path_csv("\u0437\u043d\u0430\u0447\u0435\u043d\u0438\u0435,y_1\n0,0\n1e-1, 2.5\n")
    assert p.points == ((0.0, 0.0), (0.1, 2.5))


def test_read_csv_field_over_the_csv_limit_is_a_value_error():
    with pytest.raises(ValueError, match="field limit"):
        read_path_csv("1," + "7" * 200_000 + "\n")


def test_read_csv_empty():
    with pytest.raises(ValueError):
        read_path_csv("")
