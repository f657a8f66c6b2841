"""Orbit charts: polynomial conjugation maps onto adjoint orbits.

A chart is data, never generated code: an ordered sequence of nilpotent
factors (each a basis of a nilpotent subspace, exponentiated on evaluation),
an affine slice, and for the mixed case an inner chart inside the Levi.
Evaluation is interpretive, which keeps exact differentiation possible.

The three constructions:

* nilpotent e: factors [u-], slice u2 = g(>=2) of the sl2-grading through
  e. The slice is u2 rather than u because ad e maps g(i) onto g(i+2) for
  i >= 0, so the tangent space of the group orbit inside the nilradical is
  exactly u2; for even gradings u2 = u. Verification reports flag whenever
  the two differ.
* semisimple x: factors [u-, u] of the grading by an integer witness z
  whose centralizer is the Levi centralizing x; the slice is the single
  point x.
* mixed x = x_s + x_n: outer factors [u-, u] for the Levi centralizing
  x_s, inner nilpotent chart for x_n inside that Levi, shifted by x_s.

Factor order is significant; swapping factors generally changes the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .grading import ParabolicData, _witness_grading, grading_by, parabolic_data
from .jordan import jordan_decompose
from .liealg import LieAlgebra, LieElement, ad_matrix, centralizer_basis
from .linalg import (
    NotNilpotentError,
    RatMatrix,
    VectorSpan,
    ZERO,
    g_add,
    g_div_int,
    g_identity,
    g_is_zero,
    g_lincomb,
    g_mul,
    g_neg,
    g_to_matrix,
    g_zero,
    matrix_from_json,
    matrix_to_json,
    rank,
)
from .sl2 import jacobson_morozov


class NotSemisimpleError(ValueError):
    """chart_semisimple was given an element with a nonzero nilpotent part."""


@dataclass(frozen=True)
class NilpotentFactor:
    """Basis of a nilpotent subspace; one parameter per basis matrix."""

    subspace_basis: Tuple[RatMatrix, ...]

    @property
    def param_count(self) -> int:
        return len(self.subspace_basis)


@dataclass(frozen=True)
class ComplementSeq:
    """Ordered factor sequence; products are taken left to right."""

    factors: Tuple[NilpotentFactor, ...]

    @property
    def param_count(self) -> int:
        return sum(f.param_count for f in self.factors)


@dataclass(eq=False)
class OrbitChart:
    """Evaluable parameterization of (an open piece of) the orbit of base_element.

    target_space is the slice basis: u2 for the nilpotent case, the single
    point for the semisimple and mixed cases (the mixed slice lives in the
    inner chart). parabolic carries the construction scaffolding for
    verification and sampling; it is not serialized.
    """

    case_tag: str
    base_element: LieElement
    outer: ComplementSeq
    target_space: Tuple[RatMatrix, ...]
    slice_base_coords: Tuple[Fraction, ...]
    inner: Optional["OrbitChart"]
    expected_orbit_dim: int
    parabolic: Optional[ParabolicData] = field(default=None, repr=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.base_element.algebra

    @property
    def param_count(self) -> int:
        count = self.outer.param_count
        if self.case_tag == "nilpotent":
            count += len(self.target_space)
        elif self.case_tag == "mixed":
            count += self.inner.param_count
        return count

    @property
    def base_params(self) -> tuple:
        zeros = (ZERO,) * self.outer.param_count
        if self.case_tag == "nilpotent":
            return zeros + self.slice_base_coords
        if self.case_tag == "mixed":
            return zeros + self.inner.base_params
        return zeros

    @property
    def u2_differs_from_u(self) -> bool:
        if self.case_tag == "mixed":
            return self.inner.u2_differs_from_u
        if self.parabolic is None:
            raise ValueError("chart carries no construction data")
        return self.parabolic.u2_differs_from_u


# ---------------------------------------------------------------------------
# Exponentials and factor sequences
# ---------------------------------------------------------------------------


def exp_nilpotent(a: RatMatrix) -> RatMatrix:
    """exp of a nilpotent matrix, summed exactly; inverse is exp(-a)."""
    if a.rows != a.cols:
        raise NotNilpotentError("exp of a non-square matrix")
    n = a.rows
    rows = a.row_lists()
    power = rows
    acc = g_identity(n)
    for k in range(1, n + 1):
        if g_is_zero(power):
            break
        if k == n:
            raise NotNilpotentError("matrix is not nilpotent")
        acc = g_add(acc, g_div_int(power, math.factorial(k)))
        power = g_mul(power, rows)
    return g_to_matrix(acc)


def compose_complements(outer: ComplementSeq, inner: ComplementSeq) -> ComplementSeq:
    """Concatenation, outer factors first; order is preserved."""
    return ComplementSeq(outer.factors + inner.factors)


def eval_complement(seq: ComplementSeq, params: Sequence[Fraction],
                    tail: RatMatrix) -> RatMatrix:
    """Product exp(sum t b) ... exp(sum t b) * tail, factors in order."""
    if len(params) != seq.param_count:
        raise ValueError(
            f"expected {seq.param_count} parameters, got {len(params)}"
        )
    n = tail.rows
    result = None
    pos = 0
    for factor in seq.factors:
        coeffs = params[pos:pos + factor.param_count]
        pos += factor.param_count
        a = g_lincomb(coeffs, [b.row_lists() for b in factor.subspace_basis], n, n)
        e, _ = _exp_pair(a, n)
        result = e if result is None else g_mul(result, e)
    tail_rows = tail.row_lists()
    return g_to_matrix(tail_rows if result is None else g_mul(result, tail_rows))


def _exp_pair(a: list, n: int) -> tuple:
    """(exp(a), exp(-a)) for a in a graded nilpotent subspace; powers shared."""
    acc = g_identity(n)
    acc_neg = g_identity(n)
    power = a
    k = 1
    while k <= n - 1 and not g_is_zero(power):
        term = g_div_int(power, math.factorial(k))
        acc = g_add(acc, term)
        acc_neg = g_add(acc_neg, term) if k % 2 == 0 else g_add(acc_neg, g_neg(term))
        power = g_mul(power, a)
        k += 1
    return acc, acc_neg


# ---------------------------------------------------------------------------
# Chart constructors
# ---------------------------------------------------------------------------


def chart_nilpotent(algebra: LieAlgebra, e: LieElement) -> OrbitChart:
    """Chart psi(a, v) = Ad(exp a)(v): a over u-, v affine coordinates on u2."""
    triple = jacobson_morozov(algebra, e)
    pd = parabolic_data(grading_by(algebra, triple.h))
    factor = NilpotentFactor(tuple(el.matrix for el in pd.u_minus))
    target = tuple(el.matrix for el in pd.u2)
    span = VectorSpan([m.flatten() for m in target],
                      length=algebra.ambient_size ** 2)
    base_coords = span.coords_of(e.matrix.flatten())
    if base_coords is None:
        raise AssertionError("nilpotent element does not lie in u2")
    cdim = algebra.dim - rank(ad_matrix(algebra, e))
    chart = OrbitChart(
        case_tag="nilpotent",
        base_element=e,
        outer=ComplementSeq((factor,)),
        target_space=target,
        slice_base_coords=base_coords,
        inner=None,
        expected_orbit_dim=algebra.dim - cdim,
        parabolic=pd,
    )
    _validate_chart(chart)
    return chart


def chart_semisimple(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b) = Ad(exp a exp b)(x): a over u-, b over u of the witness grading."""
    if x.is_zero():
        raise ValueError("the zero element has the zero orbit; no chart")
    pair = jordan_decompose(algebra, x)
    if not pair.nilpotent.is_zero():
        raise NotSemisimpleError("element has a nonzero nilpotent part")
    levi = centralizer_basis(algebra, x)
    pd = parabolic_data(_witness_grading(algebra, levi, seed))
    if not pd.levi0.same_span(levi):
        raise AssertionError("witness zero piece differs from the centralizer")
    outer = ComplementSeq((
        NilpotentFactor(tuple(el.matrix for el in pd.u_minus)),
        NilpotentFactor(tuple(el.matrix for el in pd.u)),
    ))
    chart = OrbitChart(
        case_tag="semisimple",
        base_element=x,
        outer=outer,
        target_space=(x.matrix,),
        slice_base_coords=(),
        inner=None,
        expected_orbit_dim=algebra.dim - levi.dim,
        parabolic=pd,
    )
    _validate_chart(chart)
    return chart


def chart_mixed(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Chart psi(a, b, c, v) = Ad(exp a exp b)(x_s + Ad(exp c)(v)).

    Outer factors come from the witness grading for the Levi centralizing
    x_s; the inner chart parameterizes the orbit of x_n inside that Levi.
    """
    pair = jordan_decompose(algebra, x)
    if pair.semisimple.is_zero() or pair.nilpotent.is_zero():
        raise ValueError("element is not mixed (needs nonzero x_s and x_n)")
    levi = centralizer_basis(algebra, pair.semisimple)
    pd = parabolic_data(_witness_grading(algebra, levi, seed))
    inner_base = levi.element_from_matrix(pair.nilpotent.matrix)
    inner = chart_nilpotent(levi, inner_base)
    outer = ComplementSeq((
        NilpotentFactor(tuple(el.matrix for el in pd.u_minus)),
        NilpotentFactor(tuple(el.matrix for el in pd.u)),
    ))
    cdim = algebra.dim - rank(ad_matrix(algebra, x))
    chart = OrbitChart(
        case_tag="mixed",
        base_element=x,
        outer=outer,
        target_space=(pair.semisimple.matrix,),
        slice_base_coords=(),
        inner=inner,
        expected_orbit_dim=algebra.dim - cdim,
        parabolic=pd,
    )
    if outer.param_count + inner.param_count != chart.expected_orbit_dim:
        raise AssertionError(
            "outer plus inner parameter count disagrees with the orbit dimension"
        )
    _validate_chart(chart)
    return chart


def build_chart(algebra: LieAlgebra, x: LieElement, seed: int) -> OrbitChart:
    """Dispatch on the Jordan type of x to the matching chart constructor."""
    if x.is_zero():
        raise ValueError("the zero element has the zero orbit; no chart")
    pair = jordan_decompose(algebra, x)
    if pair.semisimple.is_zero():
        return chart_nilpotent(algebra, x)
    if pair.nilpotent.is_zero():
        return chart_semisimple(algebra, x, seed)
    return chart_mixed(algebra, x, seed)


def _validate_chart(chart: OrbitChart) -> None:
    if chart.param_count != chart.expected_orbit_dim:
        raise AssertionError(
            f"parameter count {chart.param_count} != orbit dimension "
            f"{chart.expected_orbit_dim}"
        )
    base = eval_chart(chart, chart.base_params)
    if base != chart.base_element.matrix:
        raise AssertionError("chart does not hit the base element at the base tuple")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _flatten(chart: OrbitChart) -> tuple:
    """(factors, shift matrix or None, slice matrices) of the unrolled chart.

    Valid because the inner factors centralize the shift, so nesting and
    concatenation agree (the merge property of factor sequences).
    """
    if chart.case_tag == "nilpotent":
        return list(chart.outer.factors), None, chart.target_space
    if chart.case_tag == "semisimple":
        return list(chart.outer.factors), chart.target_space[0], ()
    if chart.case_tag == "mixed":
        if chart.inner is None or chart.inner.case_tag != "nilpotent":
            raise ValueError("mixed chart needs a nilpotent inner chart")
        factors = list(chart.outer.factors) + list(chart.inner.outer.factors)
        return factors, chart.target_space[0], chart.inner.target_space
    raise ValueError(f"unknown case tag {chart.case_tag!r}")


def eval_chart_rows(chart: OrbitChart, params: Sequence) -> list:
    """Evaluate with arbitrary ring scalars (Fractions or DualNumbers)."""
    if len(params) != chart.param_count:
        raise ValueError(
            f"expected {chart.param_count} parameters, got {len(params)}"
        )
    factors, shift, slice_mats = _flatten(chart)
    n = chart.algebra.ambient_size
    pos = 0
    g = None
    g_inv = None
    for factor in factors:
        coeffs = params[pos:pos + factor.param_count]
        pos += factor.param_count
        a = g_lincomb(coeffs, [b.row_lists() for b in factor.subspace_basis], n, n)
        e, e_inv = _exp_pair(a, n)
        g = e if g is None else g_mul(g, e)
        g_inv = e_inv if g_inv is None else g_mul(e_inv, g_inv)
    core = shift.row_lists() if shift is not None else g_zero(n, n)
    if slice_mats:
        combo = g_lincomb(params[pos:], [m.row_lists() for m in slice_mats], n, n)
        core = g_add(core, combo)
    if g is None:
        return core
    return g_mul(g_mul(g, core), g_inv)


def eval_chart(chart: OrbitChart, params: Sequence) -> RatMatrix:
    """Exact evaluation at a rational parameter tuple."""
    coerced = [Fraction(p) for p in params]
    return g_to_matrix(eval_chart_rows(chart, coerced))


def eval_chart_with_derivatives(chart: OrbitChart, params: Sequence) -> tuple:
    """Value and all first derivatives at a rational tuple.

    Equivalent to evaluating with one dual-number perturbation per
    parameter (epsilon^2 = 0), with the shared value parts computed once.
    Returns (RatMatrix, [RatMatrix per parameter]).
    """
    coerced = [Fraction(p) for p in params]
    if len(coerced) != chart.param_count:
        raise ValueError(
            f"expected {chart.param_count} parameters, got {len(coerced)}"
        )
    factors, shift, slice_mats = _flatten(chart)
    n = chart.algebra.ambient_size
    m = len(factors)

    mats = []       # per factor: combined matrix A
    powers_all = [] # per factor: [I, A, ..., A^(n-1)] padded with zeros
    exps = []
    exp_invs = []
    zero = g_zero(n, n)
    pos = 0
    factor_offsets = []
    for factor in factors:
        coeffs = coerced[pos:pos + factor.param_count]
        factor_offsets.append(pos)
        pos += factor.param_count
        a = g_lincomb(coeffs, [b.row_lists() for b in factor.subspace_basis], n, n)
        powers = [g_identity(n), a]
        for _ in range(2, n):
            prev = powers[-1]
            powers.append(zero if g_is_zero(prev) else g_mul(prev, a))
        acc = g_identity(n)
        acc_neg = g_identity(n)
        for k in range(1, n):
            if g_is_zero(powers[k]):
                continue
            term = g_div_int(powers[k], math.factorial(k))
            acc = g_add(acc, term)
            acc_neg = g_add(acc_neg, term) if k % 2 == 0 else g_add(acc_neg, g_neg(term))
        mats.append(a)
        powers_all.append(powers)
        exps.append(acc)
        exp_invs.append(acc_neg)
    slice_offset = pos

    ident = g_identity(n)
    pre = [ident]
    for f in range(1, m):
        pre.append(g_mul(pre[-1], exps[f - 1]))
    post = [ident] * m
    for f in range(m - 2, -1, -1):
        post[f] = g_mul(exps[f + 1], post[f + 1])
    ginv_pre = [ident] * m
    for f in range(m - 2, -1, -1):
        ginv_pre[f] = g_mul(ginv_pre[f + 1], exp_invs[f + 1])
    ginv_post = [ident]
    for f in range(1, m):
        ginv_post.append(g_mul(exp_invs[f - 1], ginv_post[-1]))

    g = g_mul(pre[m - 1], exps[m - 1]) if m else ident
    g_inv = g_mul(exp_invs[m - 1], ginv_post[m - 1]) if m else ident
    core = shift.row_lists() if shift is not None else g_zero(n, n)
    if slice_mats:
        combo = g_lincomb(coerced[slice_offset:], [s.row_lists() for s in slice_mats], n, n)
        core = g_add(core, combo)
    g_core = g_mul(g, core)
    core_ginv = g_mul(core, g_inv)
    value = g_mul(g_core, g_inv)

    derivs = []
    for f, factor in enumerate(factors):
        powers = powers_all[f]
        a = mats[f]
        for b_mat in factor.subspace_basis:
            b = b_mat.row_lists()
            dp = b
            dexp = g_div_int(dp, 1)
            dexp_neg = g_neg(dexp)
            for k in range(2, n):
                dp = g_add(g_mul(dp, a), g_mul(powers[k - 1], b))
                if g_is_zero(dp):
                    continue
                term = g_div_int(dp, math.factorial(k))
                dexp = g_add(dexp, term)
                dexp_neg = g_add(dexp_neg, term) if k % 2 == 0 else g_add(dexp_neg, g_neg(term))
            dg = g_mul(g_mul(pre[f], dexp), post[f])
            dginv = g_mul(g_mul(ginv_pre[f], dexp_neg), ginv_post[f])
            deriv = g_add(g_mul(dg, core_ginv), g_mul(g_core, dginv))
            derivs.append(g_to_matrix(deriv))
    for s in slice_mats:
        deriv = g_mul(g_mul(g, s.row_lists()), g_inv)
        derivs.append(g_to_matrix(deriv))
    return g_to_matrix(value), derivs


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def chart_to_json(chart: OrbitChart) -> dict:
    from .liealg import element_to_json

    return {
        "case_tag": chart.case_tag,
        "base_element": element_to_json(chart.base_element),
        "factors": [
            {"basis": [matrix_to_json(b) for b in f.subspace_basis]}
            for f in chart.outer.factors
        ],
        "slice_basis": [matrix_to_json(s) for s in chart.target_space],
        "inner": chart_to_json(chart.inner) if chart.inner is not None else None,
        "expected_orbit_dim": chart.expected_orbit_dim,
    }


def chart_from_json(algebra: LieAlgebra, data: dict) -> OrbitChart:
    """Rebuild an evaluable chart from its JSON form.

    Construction scaffolding (witness grading, parabolic) is not serialized;
    the result evaluates and differentiates but carries parabolic=None.
    """
    case = data["case_tag"]
    base = algebra.element_from_matrix(matrix_from_json(data["base_element"]["matrix"]))
    outer = ComplementSeq(tuple(
        NilpotentFactor(tuple(matrix_from_json(b) for b in f["basis"]))
        for f in data["factors"]
    ))
    target = tuple(matrix_from_json(s) for s in data["slice_basis"])
    if case == "nilpotent":
        span = VectorSpan([t.flatten() for t in target],
                          length=algebra.ambient_size ** 2)
        coords = span.coords_of(base.matrix.flatten())
        if coords is None:
            raise ValueError("base element does not lie in the slice span")
        return OrbitChart(case, base, outer, target, coords, None,
                          int(data["expected_orbit_dim"]))
    if case == "semisimple":
        return OrbitChart(case, base, outer, target, (), None,
                          int(data["expected_orbit_dim"]))
    if case == "mixed":
        xs = target[0]
        levi = centralizer_basis(algebra, algebra.element_from_matrix(xs))
        inner = chart_from_json(levi, data["inner"])
        return OrbitChart(case, base, outer, target, (), inner,
                          int(data["expected_orbit_dim"]))
    raise ValueError(f"unknown case tag {case!r}")
