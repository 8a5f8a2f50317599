"""Tensor-product expressions over named basis symbols and their factoring.

Concrete syntax: ``@`` is the tensor-product operator, terms are joined by
``+``/``-``, a term may carry a leading rational coefficient (``2``, ``1/2``,
optionally followed by ``*``), identifiers match ``[A-Za-z][A-Za-z0-9_^]*``
(so ``x^2`` is one opaque symbol, unrelated to ``x``), and parentheses are
allowed only around a single slot's linear combination::

    a1@b1 + a1@b2 + a2@b1 + a2@b2
    (a1 + a2)@(b1 + b2)
    -x@y + 2 x^2@y + 3 x@y^2 - 4 x^2@y^2 + x^3@y^2

Per-slot bases are inferred from the expression in first-appearance order;
a symbol may not appear in two different slot positions and all terms must
have the same number of slots.

Factoring routes:

* :func:`factor_exact_order2` - minimal (rank-many terms) for two slots, via
  the exact RREF rank decomposition of the coefficient matrix;
* :func:`factor_greedy` - the naive grouping loop, no minimality guarantee;
* :func:`factor_heuristic_higher_order` - alternating least squares for three
  or more slots, returning a verified upper bound or an explicit failure.
"""

from __future__ import annotations

import math
import operator
import random
import re
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import product as iter_product

from . import scalars
from .dense import MAX_COEFFS, DenseTensor, _as_size, _Immutable
from .rank import _exponent, _residual, rank_decompose_rref, rank_decompose_svd
from .scalars import COMPLEX, RATIONAL, REAL

__all__ = [
    "ExprSyntaxError",
    "SlotVector",
    "Term",
    "TensorExpr",
    "parse",
    "render",
    "infer_bases",
    "to_coefficient_tensor",
    "expand",
    "factor_exact_order2",
    "factor_greedy",
    "factor_heuristic_higher_order",
    "term_factor_vectors",
    "expr_to_json",
    "ALS_SWEEPS",
    "ALS_RESTARTS",
    "ALS_TOL",
]

# the fixed ALS schedule of factor_heuristic_higher_order
ALS_SWEEPS = 500
ALS_RESTARTS = 20
ALS_TOL = 1e-8
# a restart's best residual falls only on a sweep that lowers it by more than
# _ALS_STALL_DROP.  The restart stalls once best is unchanged over the last
# _ALS_STALL sweeps.  It plateaus once more than _ALS_WINDOW sweeps have run and
# best > _ALS_PLATEAU * (best _ALS_WINDOW sweeps earlier); that rule applies
# only while best > _ALS_GUARD * tol, so a restart near a fit is never cut
_ALS_STALL = 5
_ALS_STALL_DROP = 1e-14
_ALS_WINDOW = 50
_ALS_PLATEAU = 0.99
_ALS_GUARD = 1e3


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SlotVector(_Immutable):
    """Formal linear combination of basis symbols filling one slot."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        combined = {}  # insertion order is first-appearance order
        for sym, coeff in entries:
            combined[sym] = combined[sym] + coeff if sym in combined else coeff
        object.__setattr__(self, "entries", tuple((s, c) for s, c in combined.items() if c != 0))

    def is_zero(self) -> bool:
        return not self.entries

    def _key(self) -> frozenset:
        # the constructor makes the symbols unique, so the entry set is the
        # slot's value up to the listing order
        return frozenset(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SlotVector):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SlotVector({self.entries!r})"


class Term(namedtuple("Term", "coefficient slots")):
    """``coefficient`` times the tensor product of ``slots``, one SlotVector each."""

    __slots__ = ()


class TensorExpr(_Immutable):
    __slots__ = ("terms", "field")

    def __init__(self, terms, field: str = RATIONAL):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "field", field)

    @property
    def order(self) -> int:
        """Slot count; 0 for the empty (zero) expression."""
        return len(self.terms[0].slots) if self.terms else 0

    def __eq__(self, other) -> bool:
        # term multisets: the listing order carries no meaning, and two
        # expansions of the same tensor may infer their bases in different
        # first-appearance orders
        if not isinstance(other, TensorExpr):
            return NotImplemented
        return self.field == other.field and Counter(self.terms) == Counter(other.terms)

    __hash__ = None

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"TensorExpr(terms={self.terms!r}, field={self.field!r})"


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)|(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_^]*)|(?P<op>[@+\-*()])"
)


def _tokenize(text: str):
    """The tokens of ``text``: ``(kind, value, position, source text)``."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        word = m.group()
        if m.lastgroup == "num":
            try:
                tokens.append(("num", scalars.rational_literal(word), pos, word))
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        elif m.lastgroup == "ident":
            tokens.append(("ident", word, pos, word))
        elif m.lastgroup == "op":
            tokens.append((word, word, pos, word))
        pos = m.end()
    tokens.append(("end", None, len(text), ""))
    return tokens


def _found(tok) -> str:
    """A token as an error message names it: quoted as it was written."""
    return "end of input" if tok[0] == "end" else repr(tok[3])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {_found(tok)}", tok[2])
        return tok

    def parse_expression(self) -> list[Term]:
        terms = self.parse_signed_sum(self.parse_term)
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected {_found(tok)}", tok[2])
        return terms

    def parse_signed_sum(self, parse_item) -> list:
        """An optional leading ``-``, then items joined by ``+``/``-``, each
        parsed by ``parse_item`` with its sign."""
        sign = Fraction(1)
        if self.peek()[0] == "-":
            self.next()
            sign = Fraction(-1)
        items = [parse_item(sign)]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            items.append(parse_item(Fraction(-1) if op == "-" else Fraction(1)))
        return items

    def parse_coefficient(self, sign: Fraction) -> Fraction:
        """An optional number, then an optional ``*``; returns ``sign`` times the number."""
        if self.peek()[0] == "num":
            sign = sign * self.next()[1]
            if self.peek()[0] == "*":
                self.next()
        return sign

    def parse_term(self, sign: Fraction) -> Term:
        coeff = self.parse_coefficient(sign)
        slots = [self.parse_slot()]
        while self.peek()[0] == "@":
            self.next()
            slots.append(self.parse_slot())
        return Term(coeff, tuple(slots))

    def parse_slot(self) -> SlotVector:
        tok = self.peek()
        if tok[0] == "ident":
            self.next()
            return SlotVector(((tok[1], Fraction(1)),))
        if tok[0] == "(":
            self.next()
            # a number of value 0 alone, as _render_slot prints the zero slot
            if self.peek()[:2] == ("num", 0) and self.tokens[self.i + 1][0] == ")":
                self.i += 2
                return SlotVector(())
            sv = SlotVector(self.parse_signed_sum(self.parse_combo_entry))
            self.expect(")")
            return sv
        raise ExprSyntaxError(f"expected a symbol or '(', found {_found(tok)}", tok[2])

    def parse_combo_entry(self, sign: Fraction):
        coeff = self.parse_coefficient(sign)
        return (self.expect("ident")[1], coeff)


def _validate(terms: Sequence[Term]):
    if not terms:
        return
    m = len(terms[0].slots)
    for idx, t in enumerate(terms):
        if len(t.slots) != m:
            raise ExprSyntaxError(
                f"mixed term order: term {idx + 1} has {len(t.slots)} slot(s), expected {m}",
                0,
            )
    seen = {}
    for t in terms:
        for k, sv in enumerate(t.slots):
            for sym, _ in sv.entries:
                if seen.setdefault(sym, k) != k:
                    raise ExprSyntaxError(
                        f"symbol {sym!r} appears in slot {seen[sym] + 1} and slot {k + 1}",
                        0,
                    )


def parse(text: str) -> TensorExpr:
    """Parse expression text into a :class:`TensorExpr` (rational field).

    A lone ``0``, as :func:`render` prints the zero expression, parses to the
    expression with no terms.
    """
    parser = _Parser(text)
    if [tok[:2] for tok in parser.tokens] == [("num", 0), ("end", None)]:
        return TensorExpr((), RATIONAL)
    terms = parser.parse_expression()
    _validate(terms)
    return TensorExpr(tuple(terms), RATIONAL)


# -- rendering ---------------------------------------------------------------


def _split_sign(field: str, coeff):
    if field == COMPLEX:
        return 1, coeff
    return (-1, -coeff) if coeff < 0 else (1, coeff)


def _signed_join(field: str, pieces) -> str:
    """Print ``(coefficient, body)`` pieces as a signed sum: the first as
    ``-body``, later ones as ``- body`` or ``+ body``, each body led by its
    coefficient's magnitude unless that is 1."""
    out = []
    for idx, (coeff, body) in enumerate(pieces):
        sgn, mag = _split_sign(field, coeff)
        if mag != scalars.one(field):
            body = f"{scalars.to_text(field, mag)} {body}"
        if idx == 0:
            out.append(("-" if sgn < 0 else "") + body)
        else:
            out.append(("- " if sgn < 0 else "+ ") + body)
    return " ".join(out)


def _render_slot(field: str, sv: SlotVector) -> str:
    if sv.is_zero():
        return "(0)"
    if len(sv.entries) == 1 and sv.entries[0][1] == scalars.one(field):
        return sv.entries[0][0]
    return "(" + _signed_join(field, ((c, sym) for sym, c in sv.entries)) + ")"


def render(e: TensorExpr) -> str:
    """Canonical textual form: :func:`parse` reads it back when the field is
    rational, the zero expression ``0`` and the zero slot ``(0)`` included.
    Real and complex coefficients print as decimals, which the expression
    grammar does not read."""
    if not e.terms:
        return "0"
    return _signed_join(
        e.field,
        ((t.coefficient, "@".join(_render_slot(e.field, sv) for sv in t.slots)) for t in e.terms),
    )


# -- coefficient tensor and expansion ----------------------------------------


def _live_terms(terms) -> tuple:
    """Terms that can contribute: none of their slot combinations is zero."""
    return tuple(t for t in terms if all(not sv.is_zero() for sv in t.slots))


def infer_bases(e: TensorExpr) -> tuple:
    """One tuple of symbols per slot in first-appearance order (contributing terms only)."""
    per_slot = [{} for _ in range(e.order)]
    for t in _live_terms(e.terms):
        for k, sv in enumerate(t.slots):
            per_slot[k].update(sv.entries)
    return tuple(map(tuple, per_slot))


def to_coefficient_tensor(e: TensorExpr) -> tuple[DenseTensor, tuple]:
    """The summed coefficient of every pure basis term, and the symbol tuples
    of :func:`infer_bases` that index the tensor's axes."""
    _validate(e.terms)
    live = _live_terms(e.terms)
    basis = infer_bases(e)
    dims = tuple(map(len, basis))
    if not live:
        raise ValueError("cannot build a coefficient tensor: no contributing terms")
    size = math.prod(dims)
    if size > MAX_COEFFS:
        raise ValueError(
            f"the coefficient tensor of shape {dims} exceeds the budget of {MAX_COEFFS} coefficients"
        )
    index = [{sym: i for i, sym in enumerate(slot)} for slot in basis]
    coeffs = [scalars.zero(e.field)] * size
    for t in live:
        partial = [(0, scalars.coerce(e.field, t.coefficient))]
        for k, sv in enumerate(t.slots):
            d_k = dims[k]
            nxt = []
            for off, c in partial:
                for sym, sc in sv.entries:
                    nxt.append((off * d_k + index[k][sym], c * scalars.coerce(e.field, sc)))
            partial = nxt
        for off, c in partial:
            coeffs[off] += c
    return DenseTensor(dims, coeffs, e.field), basis


def expand(e: TensorExpr) -> TensorExpr:
    """Fully distributed canonical form: pure-symbol terms, coefficients
    collected, zero terms dropped, lexicographic order in the slot indices.

    Beyond the coefficient budget of :func:`to_coefficient_tensor`, an
    expansion whose nonzero terms times slots exceed ``MAX_COEFFS`` is
    refused with :class:`ValueError` before any term is built."""
    if not _live_terms(e.terms):
        return TensorExpr((), e.field)
    tensor, basis = to_coefficient_tensor(e)
    zero = scalars.zero(e.field)
    # each term of the expansion holds one SlotVector per slot
    nonzero = tensor.size - tensor.coeffs.count(zero)
    if nonzero * e.order > MAX_COEFFS:
        raise ValueError(
            f"the expansion has {nonzero} terms of {e.order} slots, over the budget of "
            f"{MAX_COEFFS} slot entries"
        )
    one = scalars.one(e.field)
    terms = [
        Term(c, tuple(SlotVector(((sym, one),)) for sym in syms))
        for syms, c in zip(iter_product(*basis), tensor.coeffs)
        if c != zero
    ]
    return TensorExpr(tuple(terms), e.field)


# -- factoring ----------------------------------------------------------------


def _factored(basis: tuple, terms, field: str) -> TensorExpr:
    """The sum of unit-coefficient terms whose slot ``k`` holds the given
    coefficient vector over the symbols ``basis[k]``; ``terms`` yields one
    sequence of per-slot vectors per term.  Zero entries drop out."""
    one = scalars.one(field)
    return TensorExpr(
        tuple(
            Term(one, tuple(SlotVector(tuple(zip(syms, v))) for syms, v in zip(basis, vecs)))
            for vecs in terms
        ),
        field,
    )


def factor_exact_order2(e: TensorExpr, route: str = "rref") -> TensorExpr:
    """Minimal factorization for two-slot expressions via rank decomposition
    of the coefficient matrix; term count equals the rank.

    The default ``"rref"`` route is exact and deterministic, so its output is
    reproducible factor for factor.  The ``"svd"`` route works in floats and
    returns a real-field expression whose factors are equally valid but not
    unique; re-expansion then holds to tolerance instead of exactly.
    """
    if route not in ("rref", "svd"):
        raise ValueError(f"route must be 'rref' or 'svd', got {route!r}")
    if e.terms and e.order != 2:
        raise ValueError(f"exact factoring needs exactly 2 slots, got {e.order}")
    if e.field != RATIONAL:
        raise scalars.FieldMismatchError("exact factoring works in the rational field")
    out_field = RATIONAL if route == "rref" else REAL
    if not _live_terms(e.terms):
        return TensorExpr((), out_field)
    tensor, basis = to_coefficient_tensor(e)
    if route == "rref":
        dec = rank_decompose_rref(tensor)
    else:
        dec = rank_decompose_svd(tensor)
    return _factored(basis, zip(dec.d1, dec.d2), out_field)


def factor_greedy(e: TensorExpr, direction: str = "left") -> TensorExpr:
    """Naive grouping: merge the terms that agree on all slots but one.
    ``direction`` picks which slot is tried first ("left" merges the
    first-slot factors first, "right" the last-slot factors).  The result
    re-expands to the input but need not be minimal; the loop can get stuck
    above the rank.

    For each slot ``k`` in turn, one pass groups the terms by their other
    slots.  A group of two or more becomes one term at its first member's
    place, with coefficient one and, in slot ``k``, every member's entries
    times its coefficient.  The slot loop repeats until nothing merges.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    ex = expand(e)
    if not ex.terms:
        return ex
    m = ex.order
    if m < 2:
        raise ValueError("grouping needs at least 2 slots")
    slot_order = range(m) if direction == "left" else range(m - 1, -1, -1)
    one = scalars.one(ex.field)

    def merged(group, k: int) -> Term:
        slot = SlotVector((s, t.coefficient * a) for t in group for s, a in t.slots[k].entries)
        return Term(one, group[0].slots[:k] + (slot,) + group[0].slots[k + 1 :])

    work = ex.terms
    changed = True
    while changed:
        changed = False
        for k in slot_order:
            groups = {}  # insertion order is first-appearance order
            for t in work:
                groups.setdefault(t.slots[:k] + t.slots[k + 1 :], []).append(t)
            if len(groups) < len(work):
                changed = True
                work = tuple(g[0] if len(g) == 1 else merged(g, k) for g in groups.values())
    return TensorExpr(work, ex.field)


# -- alternating least squares for order >= 3 ---------------------------------


def _solve_linear(A, B):
    """Solve ``A x = b`` for each ``b`` in ``B`` by Gaussian elimination with
    partial pivoting on ``[A | B^T]``, which picks the pivots from ``A``
    alone; works for float/complex.  The pivot is the first row of largest
    magnitude, and each row update and back-substitution sum runs in column
    order."""
    n = len(A)
    width = n + len(B)
    M = [[*a, *b] for a, b in zip(A, zip(*B))]
    for col in range(n):
        piv, big = col, abs(M[col][col])
        for r in range(col + 1, n):
            mag = abs(M[r][col])
            if mag > big:
                piv, big = r, mag
        if big < 1e-250:
            raise ArithmeticError("singular system")
        M[col], M[piv] = M[piv], M[col]
        prow = M[col][col:]
        inv = 1.0 / prow[0]
        for r in range(col + 1, n):
            row = M[r]
            f = row[col] * inv
            if f != 0:
                row[col:] = [a - f * b for a, b in zip(row[col:], prow)]
    X = []
    for j in range(n, width):
        x = [0] * n
        for r in range(n - 1, -1, -1):
            row = M[r]
            x[r] = (row[j] - sum(map(operator.mul, row[r + 1 : n], x[r + 1 :]))) / row[r]
        X.append(x)
    return X


def _draw(rng, field: str):
    """One ALS starting value: uniform on [-1, 1], or on the square [-1, 1]^2 over C."""
    x = rng.uniform(-1, 1)
    return complex(x, rng.uniform(-1, 1)) if field == COMPLEX else x


def _ldexp(c, k: int):
    """``c * 2^k`` for a real or complex ``c``: exact while it stays in the normal range."""
    if isinstance(c, complex):
        return complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))
    return math.ldexp(c, k)


def _unfoldings(dims, target) -> list:
    """Mode unfoldings of the flat row-major ``target`` of shape ``dims``: row
    ``i`` of unfolding ``n`` lists the entries whose slot-``n`` index is ``i``,
    the other slots in row-major order."""
    unfolded = [[[] for _ in range(d)] for d in dims]
    for idx, c in zip(iter_product(*map(range, dims)), target):
        for rows, i in zip(unfolded, idx):
            rows[i].append(c)
    return unfolded


def _als_fit(target, unfolded, r, field, rng, sweeps, tol) -> tuple[float, list | None]:
    """One ALS run at rank ``r`` on the flat ``target`` and its
    :func:`_unfoldings`; returns ``(residual, terms)``, where term ``l`` is
    its list of per-slot vectors, or ``(best residual, None)``."""
    m = len(unfolded)
    factors = [[[_draw(rng, field) for _ in range(r)] for _ in rows] for rows in unfolded]
    best = [math.inf]  # best[i]: the best residual after i sweeps
    for _ in range(sweeps):
        for n in range(m):
            # Khatri-Rao rows over the other slots, in row-major order
            rows = [[1] * r]
            for k in range(m):
                if k != n:
                    rows = [[p * f for p, f in zip(row, v)] for row in rows for v in factors[k]]
            cols = list(zip(*rows))
            conj_cols = [[c.conjugate() for c in col] for col in cols] if field == COMPLEX else cols
            gram = [[sum(map(operator.mul, cc, col)) for col in cols] for cc in conj_cols]
            rhs = [[sum(map(operator.mul, cc, u)) for cc in conj_cols] for u in unfolded[n]]
            try:
                factors[n] = _solve_linear(gram, rhs)
            except ArithmeticError:
                return math.inf, None
        terms = [[[row[l] for row in f] for f in factors] for l in range(r)]
        _, res = _residual(field, target, terms)
        if res <= tol:
            return res, terms
        best.append(res if res < best[-1] - _ALS_STALL_DROP else best[-1])
        if len(best) > _ALS_STALL and best[-1] == best[-_ALS_STALL - 1]:
            break
        if (
            len(best) > _ALS_WINDOW + 1
            and best[-1] > _ALS_GUARD * tol
            and best[-1] > _ALS_PLATEAU * best[-_ALS_WINDOW - 1]
        ):
            break
    return best[-1], None


def factor_heuristic_higher_order(
    e: TensorExpr, max_rank: int, field: str = REAL
) -> tuple[TensorExpr, str]:
    """ALS sweep over candidate ranks 1..max_rank for order >= 3 expressions.

    Returns ``(expression, status)``.  On the first rank whose fit re-expands
    within ``ALS_TOL`` times 2^k (max-component residual), with 2^k <=
    max|coefficient| < 2^(k+1), the factored expression is returned with
    status ``"verified-upper-bound"``; this is an upper bound on the rank,
    never a minimality claim.  If no candidate rank fits, the
    input's contributing terms are returned unchanged with status
    ``"failed"``.  Each rank gets ``ALS_RESTARTS`` fits of at most
    ``ALS_SWEEPS`` sweeps; restart ``i`` draws from ``random.Random(i)``, so
    results are reproducible no matter how restarts are scheduled.  A
    restart ends early when it stalls, after 5 sweeps in a row that each
    lower its best residual by no more than 1e-14, or when it plateaus:
    after more than 50 sweeps, while its best residual is above 1e3 *
    ``ALS_TOL`` and above 0.99 times its best residual 50 sweeps earlier.
    """
    if e.terms and e.order < 3:
        raise ValueError(
            f"heuristic factoring needs at least 3 slots, got {e.order}; "
            "use the exact or greedy routes"
        )
    if field not in (REAL, COMPLEX):
        raise ValueError("heuristic factoring works over the real or complex field")
    max_rank = _as_size(max_rank, ValueError)
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if not _live_terms(e.terms):
        return TensorExpr((), field), "verified-upper-bound"
    tensor, basis = to_coefficient_tensor(e)
    target = [scalars.coerce(field, c) for c in tensor.coeffs]
    if all(c == scalars.zero(field) for c in target):
        return TensorExpr((), field), "verified-upper-bound"
    # fit target * 2^-k (see _exponent), so ALS_TOL and the stall and plateau
    # rules read relative to 2^k
    k = _exponent(target)
    target = [_ldexp(c, -k) for c in target]
    unfolded = _unfoldings(tensor.shape, target)
    for r in range(1, max_rank + 1):
        for restart in range(ALS_RESTARTS):
            rng = random.Random(restart)
            _, terms = _als_fit(target, unfolded, r, field, rng, ALS_SWEEPS, ALS_TOL)
            if terms is not None:
                try:
                    terms = [[[_ldexp(c, k) for c in first], *rest] for first, *rest in terms]
                except OverflowError:  # this fit has no float form at the input's scale
                    continue
                return _factored(basis, terms, field), "verified-upper-bound"
    return TensorExpr(_live_terms(e.terms), e.field), "failed"


def term_factor_vectors(e: TensorExpr, basis: tuple):
    """One order-1 coefficient vector per slot of each term, over the symbol
    tuples ``basis``: the basis of the target's coefficient tensor, as
    :func:`to_coefficient_tensor` returns it.

    Bridges factored expressions to rank-1 term lists so a factorization can
    be checked by re-expansion against the coefficient tensor.  A slot entry
    whose symbol is not in ``basis`` for that slot raises :class:`ValueError`,
    since the vectors could not show it.
    """
    out = []
    for t in e.terms:
        factors = []
        for k, sv in enumerate(t.slots):
            lookup = dict(sv.entries)
            for sym in lookup:
                if sym not in basis[k]:
                    raise ValueError(f"symbol {sym!r} in slot {k + 1} is not in that slot's basis")
            coeff = scalars.coerce(e.field, t.coefficient) if k == 0 else scalars.one(e.field)
            vec = [coeff * scalars.coerce(e.field, lookup.get(sym, 0)) for sym in basis[k]]
            factors.append(DenseTensor.vector(vec, e.field))
        out.append(factors)
    return out


# -- JSON AST ------------------------------------------------------------------


def expr_to_json(e: TensorExpr) -> dict:
    return {
        "field": e.field,
        "order": e.order,
        "terms": [
            {
                "coefficient": scalars.to_json(e.field, scalars.coerce(e.field, t.coefficient)),
                "slots": [
                    [[sym, scalars.to_json(e.field, scalars.coerce(e.field, c))] for sym, c in sv.entries]
                    for sv in t.slots
                ],
            }
            for t in e.terms
        ],
    }
