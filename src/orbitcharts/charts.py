"""Orbit charts: polynomial conjugation maps onto adjoint orbits.

A chart is data, never generated code. Every chart is stored flat, once,
when it is built:

* ``factors``: an ordered tuple of nilpotent factors, each a tuple of basis
  matrices of a nilpotent subalgebra, one parameter per basis matrix;
* ``shift``: the point added to the slice (``x`` in the semisimple case,
  ``x_s`` in the mixed case, none in the nilpotent case);
* ``slice_basis`` and ``slice_base``: an affine slice, one parameter per
  basis matrix, and the slice coordinates of the base point.

With parameters t (one per factor basis matrix, in order) followed by v
(one per slice basis matrix) the chart is

    psi(t, v) = Ad(exp a_1 ... exp a_m)(shift + sum_j v_j s_j),
    a_f = sum_i t_(f,i) b_(f,i),

and ``base_params`` (all t zero, v = slice_base) hits the base element.
Evaluation is interpretive, which keeps exact differentiation possible.

Derivatives are taken in one suffix form. Write g = exp a_1 ... exp a_m,
core = shift + sum_j v_j s_j and value = g core g^-1, and let S_f be
exp a_(f+1) ... exp a_m (for the last factor the identity). Since
d(g^-1) = -g^-1 dg g^-1, the derivative is g [g^-1 dg, core] g^-1, and
along the basis element b of factor f it is

    g [S_f^-1 y S_f, core] g^-1,  y = exp(-a_f) dexp_f(b)
                                    = sum_k (-ad a_f)^k (b) / (k+1)!,

where dexp_f(b) is the derivative of exp a_f along b (B. Hall, Lie Groups,
Lie Algebras, and Representations, Thm 5.4); the series stops at its first
zero term. The derivative along the slice element s_j is g s_j g^-1.

The value pass conjugates the core by one factor at a time, from the
innermost factor outward, and keeps each partial value Ad(S_f) core.
Conjugating every column by one matrix S_k g^-1 keeps the rank, and in that
frame the column of b is [Ad(S_k S_f^-1) y, Ad(S_k) core] and the slice
column Ad(S_k) s_j. `_core_brackets` forms these columns from the partial
values in the g^-1 frame, k = m, and in the frame k = m - 1 of a chart
without a slice: `eval_chart_with_derivatives` takes k = m and maps the
columns back by g; `verify._jacobian_rank` ranks them with y = b, and
leaves unconjugated the blocks that `_plain_blocks` names. Every column
is one `commutator`, which brackets through the support of a factor of at
most n nonzeros. Every matrix is a `RatMatrix`.

Two constructions, chosen by the Jordan split x = x_s + x_n (computed once):

* x_s = 0, nilpotent e: factors [u-], slice u2 = g(>=2) of the sl2-grading
  through e. The slice is u2 rather than u because ad e maps g(i) onto
  g(i+2) for i >= 0, so the tangent space of the group orbit inside the
  nilradical is exactly u2; for even gradings u2 = u. Verification reports
  flag whenever the two differ.
* x_s != 0: factors [u-, u] of the grading by an integer witness z whose
  centralizer, the zero piece, is the Levi c(x_s); shift x_s. A semisimple
  x stops there, with no slice. A mixed x appends the factors and the slice
  of the nilpotent chart of x_n inside c(x_s); the nested form
  Ad(exp a exp b)(x_s + Ad(exp c)(v)) equals the flat one because the
  inner factors centralize x_s.

The nested ``inner`` chart of the mixed case and ``case_tag``, which is
read off the shape (no shift: nilpotent; an inner chart: mixed), are the
report and serialization view, and ``parabolic`` is the construction
scaffolding that verification samples from; evaluation reads only the flat
fields. Factor order is significant; swapping factors generally changes
the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .grading import (
    ParabolicData,
    _witness_grading,
    grading_by,
    parabolic_data,
)
from .jordan import JordanPair, jordan_decompose
from .liealg import LieAlgebra, LieElement, centralizer_basis, element_to_json
from .linalg import (
    NotNilpotentError,
    RatMatrix,
    VectorSpan,
    ZERO,
    _as_fractions,
    _bareiss,
    _int_rows,
    _lincomb,
    _matrix,
    _powers,
    commutator,
    matrix_from_json,
    matrix_to_json,
)
from .sl2 import jacobson_morozov


class NotSemisimpleError(ValueError):
    """chart_semisimple was given an element with a nonzero nilpotent part."""


class ZeroElementError(ValueError):
    """The zero element has the zero orbit, which has no chart."""


@dataclass(eq=False, frozen=True)
class OrbitChart:
    """Evaluable parameterization of (an open piece of) the orbit of base_element.

    The flat fields ``factors``, ``shift``, ``slice_basis`` and
    ``slice_base`` define the map (see the module docstring). Each factor
    spans a nilpotent subalgebra of gl_n: its span is closed under the
    bracket, and every product of n of its matrices vanishes. A built
    chart's factors are grading pieces g(<0) or g(>0), which are such
    subalgebras; `chart_from_json` checks it. ``inner`` is
    the nested nilpotent chart of the mixed case, whose factors and slice
    are the tail of this chart's. ``parabolic`` carries the construction
    scaffolding for verification and sampling; it is not serialized.
    ``slice_span`` is derived from the flat fields once, for slice
    coordinates; the chart is frozen, so no field can be reassigned under
    it. Evaluation reads each basis matrix's own `RatMatrix.support`.
    """

    base_element: LieElement
    factors: Tuple[Tuple[RatMatrix, ...], ...]
    shift: Optional[RatMatrix]
    slice_basis: Tuple[RatMatrix, ...]
    slice_base: Tuple[Fraction, ...]
    inner: Optional["OrbitChart"]
    parabolic: Optional[ParabolicData] = field(default=None, repr=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.base_element.algebra

    @property
    def case_tag(self) -> str:
        if self.shift is None:
            return "nilpotent"
        return "semisimple" if self.inner is None else "mixed"

    @property
    def param_count(self) -> int:
        return sum(len(f) for f in self.factors) + len(self.slice_basis)

    @property
    def base_params(self) -> tuple:
        return (ZERO,) * (self.param_count - len(self.slice_basis)) + self.slice_base

    @cached_property
    def slice_span(self) -> VectorSpan:
        """The `VectorSpan` of ``slice_basis``, which solves the slice
        coordinates of a point: the base point's in `_make_chart`, which
        builds it and fills this cache, and each sampled point's in
        `verify`. Never serialized or compared."""
        return VectorSpan(self.slice_basis, length=self.algebra.ambient_size ** 2)


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------


def _exp_series(a: RatMatrix) -> tuple:
    """(exp a, exp -a) of a nilpotent square matrix a, summed on integers.

    The powers a^k come from the walk `_powers`, whose last power is zero
    exactly when a is nilpotent; otherwise NotNilpotentError is raised.
    With a^k = N_k / d_k for the k with a^k != 0, exp(+-a) = sum_k
    (+-1)^k N_k (D / (d_k k!)) over the one denominator D = lcm(d_k k!),
    summed into two integer buffers, each normalized once.
    """
    n = a.rows
    powers = _powers(a)
    if not powers.pop().is_zero():
        raise NotNilpotentError("matrix is not nilpotent")
    scales = [p.den * math.factorial(k) for k, p in enumerate(powers, 1)]
    den = math.lcm(*scales)
    plus, minus = [0] * (n * n), [0] * (n * n)
    for k, (p, scale) in enumerate(zip(powers, scales), 1):
        c = den // scale
        signed = -c if k % 2 else c
        for q, v in enumerate(p.nums):
            if v:
                plus[q] += c * v
                minus[q] += signed * v
    for q in range(0, n * n, n + 1):
        plus[q] += den
        minus[q] += den
    return _matrix(n, n, plus, den), _matrix(n, n, minus, den)


def exp_nilpotent(a: RatMatrix) -> RatMatrix:
    """exp of a nilpotent matrix, summed exactly; inverse is exp(-a)."""
    if a.rows != a.cols:
        raise NotNilpotentError("exp of a non-square matrix")
    return _exp_series(a)[0]


# ---------------------------------------------------------------------------
# Chart constructors
# ---------------------------------------------------------------------------


def _make_chart(base: LieElement, factors: tuple,
                shift: Optional[RatMatrix], slice_basis: tuple,
                inner: Optional[OrbitChart], orbit_dim: int,
                parabolic: Optional[ParabolicData]) -> OrbitChart:
    """Flatten, find the slice coordinates of the base, and validate.

    A mixed chart appends the inner chart's factors and takes its slice.
    A defect raises AssertionError for a chart built here, which carries its
    ``parabolic`` scaffolding, and ValueError for one read from outside
    input, which carries none. A slice basis must be independent, one
    parameter per dimension, so its `VectorSpan` must have full rank.
    """
    error = ValueError if parabolic is None else AssertionError
    slice_base, span = (), None
    if inner is not None:
        factors = factors + inner.factors
        slice_basis, slice_base = inner.slice_basis, inner.slice_base
    elif slice_basis:
        span = VectorSpan(slice_basis, length=base.algebra.ambient_size ** 2)
        if span.rank < len(slice_basis):
            raise error("slice basis is linearly dependent")
        slice_base = span.coords_of(base.matrix)
        if slice_base is None:
            raise error("base element does not lie in the slice span")
    chart = OrbitChart(base, factors, shift, slice_basis, slice_base, inner, parabolic)
    if span is not None:
        vars(chart)["slice_span"] = span  # the `slice_span` cache: built once
    if chart.param_count != orbit_dim:
        raise error(f"parameter count {chart.param_count} != orbit dimension {orbit_dim}")
    if eval_chart(chart, chart.base_params) != base.matrix:
        raise error("chart does not hit the base element at the base tuple")
    return chart


def chart_nilpotent(e: LieElement) -> OrbitChart:
    """Chart psi(a, v) = Ad(exp a)(v): a over u-, v affine coordinates on u2."""
    triple = jacobson_morozov(e)
    pd = parabolic_data(grading_by(triple.h))
    return _make_chart(e, (pd.u_minus,), None, pd.u2,
                       None, e.orbit_dim, pd)


def chart_semisimple(x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b) = Ad(exp a exp b)(x): a over u-, b over u of the witness grading."""
    if x.is_zero():
        raise ZeroElementError("the zero element has no chart")
    pair = jordan_decompose(x)
    if not pair.nilpotent.is_zero():
        raise NotSemisimpleError("element has a nonzero nilpotent part")
    return _chart_from_split(x, pair, seed)


def chart_mixed(x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b, c, v) = Ad(exp a exp b)(x_s + Ad(exp c)(v)).

    Outer factors come from the witness grading for the Levi centralizing
    x_s; the inner chart parameterizes the orbit of x_n inside that Levi.
    """
    pair = jordan_decompose(x)
    if pair.semisimple.is_zero() or pair.nilpotent.is_zero():
        raise ValueError("element is not mixed (needs nonzero x_s and x_n)")
    return _chart_from_split(x, pair, seed)


def _chart_from_split(x: LieElement, pair: JordanPair, seed: int) -> OrbitChart:
    """The x_s != 0 construction: outer factors [u-, u] of the witness
    grading of the Levi c(x_s), shift x_s, and the nilpotent chart of x_n
    inside c(x_s) when x_n != 0.

    The witness zero piece is c(x_s) by construction, so it is not checked
    here: `_grade_candidate` takes z in the Levi's center, so c(z) holds the
    Levi, and accepts it only when dim c(z) = dim Levi; the zero piece is a
    certified basis of c(z). A zero-dimensional center grades by 0 only
    when the Levi is the whole algebra. `verify.redstab_suite` reports it.
    """
    levi = centralizer_basis(pair.semisimple)
    pd = parabolic_data(_witness_grading(x.algebra, levi, seed, pair.semisimple))
    inner = None
    if not pair.nilpotent.is_zero():
        inner = chart_nilpotent(levi.element_from_matrix(pair.nilpotent.matrix))
    return _make_chart(x, (pd.u_minus, pd.u), pair.semisimple.matrix, (), inner, x.orbit_dim, pd)


def build_chart(x: LieElement, seed: int) -> OrbitChart:
    """Split x once and build the chart of its Jordan type."""
    if x.is_zero():
        raise ZeroElementError("the zero element has no chart")
    pair = jordan_decompose(x)
    if pair.semisimple.is_zero():
        return chart_nilpotent(x)
    return _chart_from_split(x, pair, seed)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class _ValuePass:
    """The value of a chart and the intermediates its derivatives reuse.

    series[f] is (a, exp a, exp -a) for the matrix a of factors[f].
    cores[k] is Ad(S_k) core, S_k being the product of the exponentials
    of factors[k:] (exp a_(k+1) ... exp a_m in the numbering of the module
    docstring): cores[m] is the core shift + sum_j v_j s_j and cores[0] is
    the value g core g^-1.
    """

    series: list
    cores: list

    @property
    def core(self) -> RatMatrix:
        return self.cores[-1]

    @property
    def value(self) -> RatMatrix:
        return self.cores[0]


def _value_pass(chart: OrbitChart, params: Sequence) -> _ValuePass:
    """Evaluate at a tuple of exact Fractions, conjugating the core by one
    factor at a time from the innermost factor outward."""
    if len(params) != chart.param_count:
        raise ValueError(
            f"expected {chart.param_count} parameters, got {len(params)}"
        )
    n = chart.algebra.ambient_size
    series = []
    pos = 0
    for basis in chart.factors:
        coeffs = params[pos:pos + len(basis)]
        pos += len(basis)
        a = _lincomb(coeffs, [b.support for b in basis], n, n)
        series.append((a,) + _exp_series(a))
    core = chart.shift if chart.shift is not None else RatMatrix.zeros(n, n)
    if chart.slice_basis:
        core = core + _lincomb(params[pos:], [s.support for s in chart.slice_basis], n, n)
    cores = [core]
    for _, exp_a, exp_neg in reversed(series):
        cores.append(exp_a * cores[-1] * exp_neg)
    cores.reverse()
    return _ValuePass(series, cores)


def _times(a: Optional[RatMatrix], b: Optional[RatMatrix]) -> Optional[RatMatrix]:
    """a b, with None standing for the identity."""
    return b if a is None else a if b is None else a * b


def _conjugate(p: RatMatrix, y: RatMatrix, p_inv: RatMatrix) -> RatMatrix:
    """p y p^-1."""
    return p * y * p_inv


def _core_brackets(vp: _ValuePass, per_factor: Sequence, slice_basis: Sequence,
                   k: int, plain: frozenset = frozenset()) -> list:
    """The differential's columns in the frame S_k, as blocks in factor order.

    S_k is the product of the exponentials of factors[k:]: k = m gives the
    g^-1 frame of the module docstring, and k = m - 1, S_k = exp a_m, is
    taken only when there is no slice. Block f < k holds [P y P^-1,
    Ad(S_k) core] for the matrices y of per_factor[f], P = S_k S_f^-1 the
    inverse of the product over factors[f+1:k]. A block f >= k, the last
    factor's when k = m - 1, holds [y, Ad(S_k) core]: this leaves out the
    factor's own exponential, which maps the span of the factor onto
    itself (see `verify._jacobian_rank`), so the block spans what the full
    conjugation spans, not the same columns. So does a block f < k in
    ``plain``, which holds [y, Ad(S_k) core] too: `_plain_blocks` names
    the blocks whose span P leaves as it is. A last block holds the slice
    elements s_j, which S_m = 1 leaves as they are. Every column is one
    `commutator`, which brackets a sparse y, such as the E_ij of a
    diagonal grading, through its support.

    `eval_chart_with_derivatives` passes no ``plain`` block, since its
    columns must be the derivatives themselves.
    """
    core = vp.cores[k]
    blocks = [[commutator(y, core) for y in ys] for ys in per_factor[max(k, 0):]]
    blocks.append(list(slice_basis))
    p = p_inv = None  # P and P^-1, P^-1 the product over factors[f+1:k]
    for f in range(k - 1, -1, -1):
        ys = per_factor[f]
        if p is not None and f not in plain:
            ys = [_conjugate(p, y, p_inv) for y in ys]
        blocks.insert(0, [commutator(y, core) for y in ys])
        if f:
            _, exp_a, exp_neg = vp.series[f]
            p, p_inv = _times(p, exp_neg), _times(exp_a, p_inv)
    return blocks


def _plain_blocks(factors: Sequence, k: int) -> frozenset:
    """The blocks f < k that `_core_brackets` in the frame S_k may leave
    unconjugated: those whose factor's span U_f every factor g with
    f < g < k normalizes, [b_g, b_f] in U_f for all basis pairs.

    Then ad a_g maps U_f into U_f, so Ad(P) = prod exp(-ad a_g) maps U_f
    onto U_f. The block's span [U_f, Ad(S_k) core] is therefore the same
    with or without P, and so is the rank of all the blocks. On a built
    mixed chart the Levi c(x_s) holds the inner factors and normalizes
    the outer u = g(>0), so u's block is plain, and so is the inner
    factor's, with no factor after it; u- is not, as [u, u-] leaves it.

    The brackets are tested by `_in_span`, which stops at the first one
    outside U_f. The basis of U_f may be dependent, as in a chart read from
    JSON: `_in_span` tests against its span, so the verdict is the same
    as for an independent basis of U_f.
    """
    def normalized(f: int) -> bool:
        later = [a for g in range(f + 1, k) for a in factors[g]]
        brackets = (commutator(a, b) for a in later for b in factors[f])
        return not later or _in_span(factors[f], brackets, len(later[0].nums))

    return frozenset(f for f in range(k) if normalized(f))


def _in_span(basis: Sequence, matrices, length: int) -> bool:
    """Whether every matrix of the iterable ``matrices`` lies in the span of
    the matrices ``basis``, each of ``length`` entries: one `VectorSpan`,
    which spans them even when ``basis`` is dependent or empty. The test
    stops at the first matrix outside."""
    span = VectorSpan(basis, length=length)
    return all(span.coords_of(m) is not None for m in matrices)


def _left_dexp(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """exp(-a) dexp_a(b) = sum_k (-ad a)^k (b) / (k+1)!, the terms before
    the first zero one summed in one `_lincomb` pass."""
    terms, term = [], b
    while not term.is_zero():
        terms.append(term.support)
        term = commutator(term, a)
    coeffs = [Fraction(1, math.factorial(k)) for k in range(1, len(terms) + 1)]
    return _lincomb(coeffs, terms, a.rows, a.rows)


def eval_chart(chart: OrbitChart, params: Sequence) -> RatMatrix:
    """Exact evaluation at a rational parameter tuple."""
    return _value_pass(chart, _as_fractions(params)).value


def eval_chart_with_derivatives(chart: OrbitChart, params: Sequence) -> tuple:
    """Value and all first derivatives at a rational tuple, exactly.

    Equal to evaluating with one dual-number perturbation per parameter
    (epsilon^2 = 0), the oracle the test suite checks it against; computed
    in the suffix form of the module docstring from one value pass. Returns
    (RatMatrix, [RatMatrix per parameter]).
    """
    vp = _value_pass(chart, _as_fractions(params))
    ys = [[_left_dexp(a, b) for b in basis]
          for (a, _, _), basis in zip(vp.series, chart.factors)]
    g = g_inv = RatMatrix.identity(chart.algebra.ambient_size)
    for _, exp_a, exp_neg in vp.series:
        g, g_inv = g * exp_a, exp_neg * g_inv
    blocks = _core_brackets(vp, ys, chart.slice_basis, len(ys))
    return vp.value, [g * c * g_inv for block in blocks for c in block]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def chart_to_json(chart: OrbitChart) -> dict:
    """The nested view: a mixed chart lists its own factors and shift, and
    its inner chart separately."""
    inner = chart.inner
    own_factors = chart.factors
    if inner is not None:
        own_factors = own_factors[:len(own_factors) - len(inner.factors)]
    return {
        "case_tag": chart.case_tag,
        "base_element": element_to_json(chart.base_element),
        "factors": [{"basis": [matrix_to_json(b) for b in f]} for f in own_factors],
        "slice_basis": [matrix_to_json(s) for s in
                        (chart.slice_basis if chart.shift is None else (chart.shift,))],
        "inner": chart_to_json(inner) if inner is not None else None,
        "expected_orbit_dim": chart.param_count,
    }


def chart_from_json(algebra: LieAlgebra, data: dict) -> OrbitChart:
    """Rebuild an evaluable chart from its JSON form.

    Construction scaffolding (witness grading, parabolic) is not serialized;
    the result evaluates and differentiates but carries parabolic=None.
    Raises ValueError when a field is missing or has the wrong JSON type,
    when a mixed chart's inner chart is not nilpotent (checked before it is
    read, so nesting cannot recurse), when the base element is zero
    (`ZeroElementError`, as in `build_chart`), when a factor, slice or
    shift matrix does not lie in the algebra (the inner chart's in its
    Levi), when a factor does not span a nilpotent subalgebra (see
    `OrbitChart`), when the slice basis is linearly dependent, when the
    parameter count differs from the field 'expected_orbit_dim', or when
    the base tuple does not evaluate to the base element.

    The factor check is what lets `verify._jacobian_rank` rank the
    conjugated columns: it needs each factor's span closed under the
    bracket, and the exponentials need every a_f nilpotent. A chart that
    fails it could not pass ``rebuilt_chart_identity`` in `verify_chart`
    anyway, since every built chart's factors pass it.
    """
    _check_chart_shape(data)
    case = data["case_tag"]
    base = algebra.element_from_matrix(matrix_from_json(data["base_element"].get("matrix")))
    if base.is_zero():
        raise ZeroElementError("the zero element has no chart")
    factors = tuple(_square_matrices(algebra, "factors", f["basis"]) for f in data["factors"])
    for i, basis in enumerate(factors):
        defect = _factor_defect(basis, algebra.ambient_size)
        if defect:
            raise ValueError(f"chart JSON field 'factors' must span nilpotent subalgebras; "
                             f"factor {i} is not {defect}")
    listed = _square_matrices(algebra, "slice_basis", data["slice_basis"])
    orbit_dim = data["expected_orbit_dim"]
    if case == "nilpotent":
        return _make_chart(base, factors, None, listed, None, orbit_dim, None)
    if case not in ("semisimple", "mixed"):
        raise ValueError(f"unknown case tag {case!r}")
    if len(listed) != 1:
        raise ValueError(f"{case} chart needs exactly one slice matrix, the shift")
    inner = None
    if case == "mixed":
        levi = centralizer_basis(algebra.element_from_matrix(listed[0]))
        inner = chart_from_json(levi, data["inner"])
    return _make_chart(base, factors, listed[0], (), inner, orbit_dim, None)


_CHART_FIELDS = (("case_tag", str, "a string"), ("base_element", dict, "an object"),
                 ("factors", list, "an array"), ("slice_basis", list, "an array"),
                 ("expected_orbit_dim", int, "an integer"))


def _check_chart_shape(data) -> None:
    """Raise ValueError naming the first field of chart JSON ``data`` that
    is missing or has the wrong JSON type, or the 'inner' field of a mixed
    chart when it is not a nilpotent chart."""
    if not isinstance(data, dict):
        raise ValueError("chart JSON must be an object")
    for key, kind, name in _CHART_FIELDS:
        if not isinstance(data.get(key), kind) or isinstance(data.get(key), bool):
            raise ValueError(f"chart JSON field {key!r} must be {name}")
    if not all(isinstance(f, dict) and isinstance(f.get("basis"), list)
               for f in data["factors"]):
        raise ValueError("chart JSON field 'factors' must hold objects with a 'basis' array")
    if data["case_tag"] == "mixed" and not (isinstance(data.get("inner"), dict)
                                            and data["inner"].get("case_tag") == "nilpotent"):
        raise ValueError("chart JSON field 'inner' must be a nilpotent chart in a mixed chart")


def _square_matrices(algebra: LieAlgebra, key: str, entries: list) -> tuple:
    """The matrices of chart JSON field ``key``; each must lie in ``algebra``
    (so be n x n)."""
    matrices = tuple(matrix_from_json(m) for m in entries)
    if not all(map(algebra.contains_matrix, matrices)):
        raise ValueError(f"chart JSON field {key!r} must hold matrices of {algebra.label}")
    return matrices


def _factor_defect(basis: tuple, n: int) -> str:
    """Why the span U of the n x n matrices ``basis`` is not a nilpotent
    subalgebra, or "" when it is.

    U is nilpotent iff every product of n of its matrices vanishes, that
    is iff V_n = 0 for V_0 = Q^n and V_(k+1) = span{b v : b in basis,
    v in V_k}; each V_k is kept as the echelon rows of its vectors. U is
    closed iff the bracket of every basis pair lies in U (`_in_span`). Both
    tests read only spans, so a dependent ``basis`` gets the verdict of an
    independent basis of U.
    """
    space = RatMatrix.identity(n)
    transposed = [b.transpose() for b in basis]
    for _ in range(n):
        ech, piv, _ = _bareiss([row for bt in transposed for row in _int_rows(space * bt)])
        if not piv:
            break
        space = _matrix(len(piv), n, [x for row in ech[:len(piv)] for x in row])
    else:
        return "nilpotent"
    brackets = (commutator(a, b) for i, a in enumerate(basis) for b in basis[i + 1:])
    return "" if _in_span(basis, brackets, n * n) else "bracket-closed"
