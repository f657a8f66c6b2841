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

Derivatives are taken in bracket form. Write g = exp a_1 ... exp a_m,
core = shift + sum_j v_j s_j and value = g core g^-1, and let prefix[f]
be exp a_1 ... exp a_(f-1) (for f = 1 the identity). Since
d(g^-1) = -g^-1 dg g^-1, the derivative along the basis element b of
factor f is

    [X, value],  X = dg g^-1 = prefix[f] (dexp_f(b) exp(-a_f)) prefix[f]^-1,

where dexp_f(b) is the derivative of exp a_f along b; the exponentials
after factor f cancel in dg g^-1. The derivative along the slice element
s_j is g s_j g^-1. `eval_chart_with_derivatives` computes these columns
exactly from the pieces of one value pass; `verify` ranks a conjugate of
them that needs no dexp series (`verify._jacobian_rank`). Every matrix in
both passes is a `RatMatrix`.

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

``case_tag`` and the nested ``inner`` chart of the mixed case are the
report and serialization view, and ``parabolic`` is the construction
scaffolding that verification samples from; evaluation reads only the flat
fields. Factor order is significant; swapping factors generally changes
the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .grading import (
    ParabolicData,
    _witness_grading,
    _zero_piece_matches,
    grading_by,
    parabolic_data,
)
from .jordan import JordanPair, jordan_decompose
from .liealg import LieAlgebra, LieElement, ad_matrix, centralizer_basis
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
    _span_rank,
    _support,
    commutator,
    matrix_from_json,
    matrix_to_json,
    rank,
)
from .sl2 import jacobson_morozov


class NotSemisimpleError(ValueError):
    """chart_semisimple was given an element with a nonzero nilpotent part."""


@dataclass(eq=False)
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
    """

    case_tag: str
    base_element: LieElement
    factors: Tuple[Tuple[RatMatrix, ...], ...]
    shift: Optional[RatMatrix]
    slice_basis: Tuple[RatMatrix, ...]
    slice_base: Tuple[Fraction, ...]
    inner: Optional["OrbitChart"]
    expected_orbit_dim: int
    parabolic: Optional[ParabolicData] = field(default=None, repr=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.base_element.algebra

    @property
    def param_count(self) -> int:
        return sum(len(f) for f in self.factors) + len(self.slice_basis)

    @property
    def base_params(self) -> tuple:
        return (ZERO,) * (self.param_count - len(self.slice_basis)) + self.slice_base

    @property
    def u2_differs_from_u(self) -> bool:
        if self.case_tag == "mixed":
            return self.inner.u2_differs_from_u
        if self.parabolic is None:
            raise ValueError("chart carries no construction data")
        return self.parabolic.u2_differs_from_u


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------


def _exp_series(a: RatMatrix) -> tuple:
    """(powers, exp a, exp -a) of a nilpotent square matrix a.

    powers is [I, a, ..., a^k] up to the last nonzero power; both
    exponentials are summed from those same powers.
    """
    n = a.rows
    powers = [RatMatrix.identity(n)]
    acc = acc_neg = powers[0]
    power = a
    k = 1
    while not power.is_zero():
        if k == n:
            raise NotNilpotentError("matrix is not nilpotent")
        powers.append(power)
        term = power.scale(Fraction(1, math.factorial(k)))
        acc = acc + term
        acc_neg = acc_neg + term if k % 2 == 0 else acc_neg - term
        power = power * a
        k += 1
    return powers, acc, acc_neg


def exp_nilpotent(a: RatMatrix) -> RatMatrix:
    """exp of a nilpotent matrix, summed exactly; inverse is exp(-a)."""
    if a.rows != a.cols:
        raise NotNilpotentError("exp of a non-square matrix")
    return _exp_series(a)[1]


# ---------------------------------------------------------------------------
# Chart constructors
# ---------------------------------------------------------------------------


def _make_chart(case_tag: str, base: LieElement, factors: tuple,
                shift: Optional[RatMatrix], slice_basis: tuple,
                inner: Optional[OrbitChart], orbit_dim: int,
                parabolic: Optional[ParabolicData], error: type) -> OrbitChart:
    """Flatten, find the slice coordinates of the base, and validate.

    A mixed chart appends the inner chart's factors and takes its slice.
    Defects raise ``error``: AssertionError for charts built here,
    ValueError for charts read from outside input.
    """
    slice_base = ()
    if inner is not None:
        factors = factors + inner.factors
        slice_basis, slice_base = inner.slice_basis, inner.slice_base
    elif slice_basis:
        n = base.algebra.ambient_size
        slice_base = VectorSpan(slice_basis, length=n * n).coords_of(base.matrix)
        if slice_base is None:
            raise error("base element does not lie in the slice span")
    chart = OrbitChart(case_tag, base, factors, shift, slice_basis, slice_base,
                       inner, orbit_dim, parabolic)
    if chart.param_count != orbit_dim:
        raise error(f"parameter count {chart.param_count} != orbit dimension {orbit_dim}")
    if eval_chart(chart, chart.base_params) != base.matrix:
        raise error("chart does not hit the base element at the base tuple")
    return chart


def _basis(elements: Sequence[LieElement]) -> Tuple[RatMatrix, ...]:
    return tuple(el.matrix for el in elements)


def chart_nilpotent(algebra: LieAlgebra, e: LieElement) -> OrbitChart:
    """Chart psi(a, v) = Ad(exp a)(v): a over u-, v affine coordinates on u2."""
    triple = jacobson_morozov(algebra, e)
    pd = parabolic_data(grading_by(algebra, triple.h))
    return _make_chart("nilpotent", e, (_basis(pd.u_minus),), None, _basis(pd.u2),
                       None, rank(ad_matrix(algebra, e)), pd, AssertionError)


def chart_semisimple(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b) = Ad(exp a exp b)(x): a over u-, b over u of the witness grading."""
    if x.is_zero():
        raise ValueError("the zero element has the zero orbit; no chart")
    pair = jordan_decompose(algebra, x)
    if not pair.nilpotent.is_zero():
        raise NotSemisimpleError("element has a nonzero nilpotent part")
    return _chart_from_split(algebra, x, pair, seed)


def chart_mixed(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b, c, v) = Ad(exp a exp b)(x_s + Ad(exp c)(v)).

    Outer factors come from the witness grading for the Levi centralizing
    x_s; the inner chart parameterizes the orbit of x_n inside that Levi.
    """
    pair = jordan_decompose(algebra, x)
    if pair.semisimple.is_zero() or pair.nilpotent.is_zero():
        raise ValueError("element is not mixed (needs nonzero x_s and x_n)")
    return _chart_from_split(algebra, x, pair, seed)


def _chart_from_split(algebra: LieAlgebra, x: LieElement, pair: JordanPair,
                      seed: int) -> OrbitChart:
    """The x_s != 0 construction: outer factors [u-, u] of the witness
    grading of the Levi c(x_s), shift x_s, and the nilpotent chart of x_n
    inside c(x_s) when x_n != 0."""
    levi = centralizer_basis(algebra, pair.semisimple)
    pd = parabolic_data(_witness_grading(algebra, levi, seed))
    if not _zero_piece_matches(pd.grading, pair.semisimple.matrix, levi.dim):
        raise AssertionError("witness zero piece differs from the centralizer")
    inner = None
    if not pair.nilpotent.is_zero():
        inner = chart_nilpotent(levi, levi.element_from_matrix(pair.nilpotent.matrix))
    return _make_chart("semisimple" if inner is None else "mixed", x,
                       (_basis(pd.u_minus), _basis(pd.u)), pair.semisimple.matrix, (),
                       inner, rank(ad_matrix(algebra, x)), pd, AssertionError)


def build_chart(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Split x once and build the chart of its Jordan type."""
    if x.is_zero():
        raise ValueError("the zero element has the zero orbit; no chart")
    pair = jordan_decompose(algebra, x)
    if pair.semisimple.is_zero():
        return chart_nilpotent(algebra, x)
    return _chart_from_split(algebra, x, pair, seed)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class _ValuePass:
    """The value of a chart and the intermediates its derivatives reuse.

    series[f] is `_exp_series` of the matrix a_f of factors[f]; prefix[f] is
    the product of the exponentials of factors[:f] and inv_prefix[f] its
    inverse, so prefix[m] = g and inv_prefix[m] = g^-1 for m factors.
    core is shift + sum_j v_j s_j, and value is g core g^-1.
    """

    series: list
    prefix: list
    inv_prefix: list
    core: RatMatrix
    value: RatMatrix


def _value_pass(chart: OrbitChart, params: Sequence) -> _ValuePass:
    """Evaluate at a tuple of exact Fractions."""
    if len(params) != chart.param_count:
        raise ValueError(
            f"expected {chart.param_count} parameters, got {len(params)}"
        )
    n = chart.algebra.ambient_size
    series = []
    prefix = [RatMatrix.identity(n)]
    inv_prefix = [prefix[0]]
    pos = 0
    for basis in chart.factors:
        coeffs = params[pos:pos + len(basis)]
        pos += len(basis)
        series.append(_exp_series(_lincomb(coeffs, [_support(b) for b in basis], n, n)))
        prefix.append(prefix[-1] * series[-1][1])
        inv_prefix.append(series[-1][2] * inv_prefix[-1])
    core = chart.shift if chart.shift is not None else RatMatrix.zeros(n, n)
    if chart.slice_basis:
        core = core + _lincomb(params[pos:], [_support(s) for s in chart.slice_basis], n, n)
    return _ValuePass(series, prefix, inv_prefix, core, prefix[-1] * core * inv_prefix[-1])


def eval_chart(chart: OrbitChart, params: Sequence) -> RatMatrix:
    """Exact evaluation at a rational parameter tuple."""
    return _value_pass(chart, _as_fractions(params)).value


def eval_chart_with_derivatives(chart: OrbitChart, params: Sequence) -> tuple:
    """Value and all first derivatives at a rational tuple, exactly.

    Equal to evaluating with one dual-number perturbation per parameter
    (epsilon^2 = 0), computed in the bracket form of the module docstring
    from one value pass. The powers of a_f drive dexp_f(b) = sum_k d(a_f^k)/k!,
    where d(a^k) = d(a^(k-1)) a + a^(k-1) b can be nonzero after a^k = 0,
    and every term has a factor a, so a = 0 leaves dexp = b. The zero test
    only skips terms that vanish. Returns (RatMatrix, [RatMatrix per parameter]).
    """
    vp = _value_pass(chart, _as_fractions(params))
    n = chart.algebra.ambient_size
    value = vp.value
    columns = []
    for f, basis in enumerate(chart.factors):
        powers, _, exp_neg = vp.series[f]
        for b in basis:
            dp = dexp = b
            for k in range(2, n if len(powers) > 1 else 2):
                dp = dp * powers[1]
                if k - 1 < len(powers):
                    dp = dp + powers[k - 1] * b
                if dp.is_zero():
                    if k >= len(powers):
                        break
                    continue
                dexp = dexp + dp.scale(Fraction(1, math.factorial(k)))
            x = dexp * exp_neg
            if f:
                x = vp.prefix[f] * x * vp.inv_prefix[f]
            columns.append(x * value - value * x)
    g, g_inv = vp.prefix[-1], vp.inv_prefix[-1]
    columns.extend(g * s * g_inv for s in chart.slice_basis)
    return value, columns


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def chart_to_json(chart: OrbitChart) -> dict:
    """The nested view: a mixed chart lists its own factors and shift, and
    its inner chart separately."""
    from .liealg import element_to_json

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
        "expected_orbit_dim": chart.expected_orbit_dim,
    }


def chart_from_json(algebra: LieAlgebra, data: dict) -> OrbitChart:
    """Rebuild an evaluable chart from its JSON form.

    Construction scaffolding (witness grading, parabolic) is not serialized;
    the result evaluates and differentiates but carries parabolic=None.
    Raises ValueError when a field is missing or has the wrong JSON type,
    when a factor, slice or shift matrix is not n x n for the algebra,
    when a factor does not span a nilpotent subalgebra (see `OrbitChart`),
    when the parameter count differs from expected_orbit_dim, or when the
    base tuple does not evaluate to the base element.

    The factor check is what lets `verify._jacobian_rank` rank the
    conjugated columns: it needs each factor's span closed under the
    bracket, and the exponentials need every a_f nilpotent. A chart that
    fails it could not pass ``rebuilt_chart_identity`` in `verify_chart`
    anyway, since every built chart's factors pass it.
    """
    _check_chart_shape(data)
    case = data["case_tag"]
    base = algebra.element_from_matrix(matrix_from_json(data["base_element"].get("matrix")))
    factors = tuple(_square_matrices(algebra, "factors", f["basis"]) for f in data["factors"])
    for i, basis in enumerate(factors):
        defect = _factor_defect(basis, algebra.ambient_size)
        if defect:
            raise ValueError(f"chart JSON field 'factors' must span nilpotent subalgebras; "
                             f"factor {i} is not {defect}")
    listed = _square_matrices(algebra, "slice_basis", data["slice_basis"])
    orbit_dim = data["expected_orbit_dim"]
    if case == "nilpotent":
        return _make_chart(case, base, factors, None, listed, None, orbit_dim,
                           None, ValueError)
    if case not in ("semisimple", "mixed"):
        raise ValueError(f"unknown case tag {case!r}")
    if len(listed) != 1:
        raise ValueError(f"{case} chart needs exactly one slice matrix, the shift")
    inner = None
    if case == "mixed":
        levi = centralizer_basis(algebra, algebra.element_from_matrix(listed[0]))
        inner = chart_from_json(levi, data["inner"])
        if inner.case_tag != "nilpotent":
            raise ValueError("mixed chart needs a nilpotent inner chart")
    return _make_chart(case, base, factors, listed[0], (), inner, orbit_dim,
                       None, ValueError)


_CHART_FIELDS = (("case_tag", str, "a string"), ("base_element", dict, "an object"),
                 ("factors", list, "an array"), ("slice_basis", list, "an array"),
                 ("expected_orbit_dim", int, "an integer"))


def _check_chart_shape(data) -> None:
    """Raise ValueError naming the first field of chart JSON ``data`` that
    is missing or has the wrong JSON type."""
    if not isinstance(data, dict):
        raise ValueError("chart JSON must be an object")
    for key, kind, name in _CHART_FIELDS:
        if not isinstance(data.get(key), kind) or isinstance(data.get(key), bool):
            raise ValueError(f"chart JSON field {key!r} must be {name}")
    if not all(isinstance(f, dict) and isinstance(f.get("basis"), list)
               for f in data["factors"]):
        raise ValueError("chart JSON field 'factors' must hold objects with a 'basis' array")
    if data["case_tag"] == "mixed" and not isinstance(data.get("inner"), dict):
        raise ValueError("chart JSON field 'inner' must be an object in a mixed chart")


def _square_matrices(algebra: LieAlgebra, key: str, entries: list) -> tuple:
    """The matrices of chart JSON field ``key``; each must be n x n."""
    n = algebra.ambient_size
    matrices = tuple(matrix_from_json(m) for m in entries)
    if any(m.rows != n or m.cols != n for m in matrices):
        raise ValueError(f"chart JSON field {key!r} must hold {n}x{n} matrices")
    return matrices


def _factor_defect(basis: tuple, n: int) -> str:
    """Why the span U of the n x n matrices ``basis`` is not a nilpotent
    subalgebra, or "" when it is.

    U is nilpotent iff every product of n of its matrices vanishes, that
    is iff V_n = 0 for V_0 = Q^n and V_(k+1) = span{b v : b in basis,
    v in V_k}; each V_k is kept as the echelon rows of its vectors. U is
    closed iff adding the brackets of basis pairs leaves its dimension.
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
    brackets = [commutator(a, b) for i, a in enumerate(basis) for b in basis[i + 1:]]
    if _span_rank(basis + tuple(brackets)) != _span_rank(basis):
        return "bracket-closed"
    return ""
