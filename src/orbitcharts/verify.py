"""Exact verification engine and the orbit classification maps.

Reports are pure functions of (inputs, seed). Every sampled quantity flows
from one splitmix64 stream, so reruns are byte-identical. Failures are
recorded in the report, never thrown.

Each check prints its expected and observed values. All but three are
built by `_agrees` and pass exactly when observed == expected, so their
verdicts can be recomputed from the report JSON alone. The three keep a
rule of their own: ``levi_witness_found`` observes the witness matrix and
passes when one was found, ``jordan_type_preserved`` also passes when
nothing was sampled, and ``u2_differs_from_u`` is informational and always
passes.

The Jacobian checks rank the differential exactly. At each point one
exact value pass is made, and `charts._core_brackets` gives the
differential's columns conjugated by S_k g^-1, S_k = exp a_(k+1) ...
exp a_m, with k = m (the g^-1 frame) for a chart with a slice and
k = m - 1 for one without: each factor column is one bracket with the
partial value Ad(S_k) core, and a semisimple chart's columns need no
conjugation. A column whose basis element is left unconjugated and has at
most n nonzeros is bracketed through the element's support in the chart's
``supports`` (`linalg._support_bracket`), a denser one by `commutator`.
The columns' integer numerators go to `linalg._span_rank`, which divides
each row by its content and ranks them by one Bareiss elimination, slice
rows first and then the factor blocks from the last factor to the first
(`_jacobian_rank`). Every rank, a report's and `jacobian_rank_at`'s, is
taken in the chart's one `_RankFrame` (`_rank_frame`): the columns go in
the weight order of the chart's diagonal grading elements, and a factor
block that the factors between it and the frame normalize is left
unconjugated. Neither changes the rank.

Equal characteristic polynomials are certified by power sums: x and each
value v are walked once (`linalg._powers`), and tr(v^k), k = 1 .. n, is
compared with tr(x^k). In characteristic 0, Newton's identities k e_k =
sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i turn these p_k into the coefficients
+-e_k of the characteristic polynomial and back (Macdonald, Symmetric
Functions and Hall Polynomials, I.2). On a nilpotent chart the same walk
gives the ranks of v^k for k < n, hence the Jordan type of v.

The reductivity of a centralizer is tested through its proxy: the ambient
trace form restricted to the centralizer is nondegenerate. This is valid
for the algebraic subalgebras arising here (centralizers of semisimple
elements are Levis; centralizers of non-semisimple elements contain the
nilpotent part in the radical of the form) and is asserted only as the
test proxy, not as a general theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, List, Optional, Sequence

from .charts import (
    OrbitChart,
    _core_brackets,
    _exp_series,
    _plain_blocks,
    _value_pass,
    build_chart,
)
from .grading import WitnessNotFoundError, _witness_grading, _zero_piece_matches
from .jordan import jordan_decompose
from .liealg import (
    LieElement,
    build_classical,
    centralizer_basis,
    trace_form_gram,
)
from .linalg import (
    ONE,
    RatMatrix,
    ZERO,
    _as_fractions,
    _is_diagonal,
    _lincomb,
    _matrix,
    _powers,
    _span_rank,
    _support,
    commutator,
    det,
    is_semisimple_matrix,
    matrix_to_json,
    rank,
    rational_str,
)
from .rng import SplitMix64


class ZeroSemisimplePartError(ValueError):
    """The zero orbit is excluded from the classification."""


@dataclass
class Check:
    name: str
    expected: object
    observed: object
    passed: bool


def _agrees(name: str, expected, observed) -> Check:
    """The check that passes exactly when ``observed`` equals ``expected``."""
    return Check(name, expected, observed, observed == expected)


@dataclass(eq=False)
class VerificationReport:
    subject: dict
    seed: int
    sample_count: int
    checks: List[Check]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "subject": report.subject,
        "seed": report.seed,
        "sample_count": report.sample_count,
        "checks": [
            {"name": c.name, "expected": c.expected, "observed": c.observed,
             "pass": c.passed}
            for c in report.checks
        ],
        "overall_pass": report.overall_pass,
    }


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def jacobian_rank_at(chart: OrbitChart, params: Sequence) -> int:
    """Exact rank of the differential of the chart at ``params``, in the
    frame a report on ``chart`` ranks it in, ``_rank_frame(chart, chart)``:
    a built chart's columns go in the weight order of its diagonal grading
    elements, and a chart from `chart_from_json` keeps its column order.
    See `_jacobian_rank`."""
    return _jacobian_rank(chart, _value_pass(chart, _as_fractions(params)),
                          _rank_frame(chart, chart))


@dataclass(frozen=True)
class _RankFrame:
    """How `_jacobian_rank` lays out the rows of ``chart`` (`_rank_frame`).

    ``order`` is an `operator.itemgetter` that permutes the n^2 flattened
    entries of each row, or None to keep them in place; ``plain`` holds the
    factor blocks left unconjugated (`charts._plain_blocks`). Neither
    changes the rank.
    """

    order: Optional[Callable]
    plain: frozenset


def _frame_index(chart: OrbitChart) -> int:
    """k of the frame S_k that `_jacobian_rank` ranks ``chart`` in: m with
    a slice, else m - 1. With neither slice nor factor k = -1, cores[-1]
    is the core, and no block is formed."""
    m = len(chart.factors)
    return m if chart.slice_basis else m - 1


def _rank_frame(chart: OrbitChart, scaffold: OrbitChart) -> _RankFrame:
    """The `_RankFrame` of ``chart``, built once per report and once per
    `jacobian_rank_at` call, whose scaffolding is ``scaffold``: the chart
    itself, or, in a report on a chart from `chart_from_json`, the chart
    rebuilt from x.

    The order is read off the grading elements of ``scaffold`` and of
    ``scaffold.inner`` that carry a parabolic: the JM h of a nilpotent
    chart, the witness z of a semisimple one, and z, then the inner JM h,
    for a mixed one (h lies in the Levi c(x_s), where z is central, so
    they commute). The flattened entries (a, b) are taken in increasing
    weights d_a - d_b of each such element that is diagonal, with entries
    d_a, and of the chart's size, compared in that order, ties by
    position, so that the rows of the graded factor blocks come nearly
    block triangular (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 8.1) and `_bareiss` skips most of them. A
    non-diagonal element adds no weight; with no diagonal one the entries
    keep their order, as for a chart from `chart_from_json` ranked alone.

    The plain blocks are read off ``chart``'s own factors, so a chart from
    `chart_from_json` is ranked on its own factors. A column permutation
    and a plain block each keep the rank exactly, so a scaffold whose
    grading does not fit ``chart`` changes only the speed.
    """
    n = chart.algebra.ambient_size
    graded = [c.parabolic.grading.grading_element.matrix for c in (scaffold, scaffold.inner)
              if c is not None and c.parabolic is not None]
    diagonals = [g.nums[::n + 1] for g in graded if g.rows == n and _is_diagonal(g)]
    flat = sorted(range(n * n), key=lambda q: [d[q // n] - d[q % n] for d in diagonals])
    order = itemgetter(*flat) if flat != list(range(n * n)) else None
    return _RankFrame(order, _plain_blocks(chart.factors, _frame_index(chart)))


def _jacobian_rank(chart: OrbitChart, vp, frame: _RankFrame) -> int:
    """Exact rank of the differential of ``chart`` at the value pass ``vp``.

    The columns are ranked in the frame S_k = exp a_(k+1) ... exp a_m:
    k = m, the g^-1 frame, for a chart with a slice, and k = m - 1 for one
    without (`_frame_index`). The differential's columns conjugated by
    S_k g^-1, which keeps the rank, are [Ad(S_k S_f^-1) y, Ad(S_k) core]
    with y = exp(-a_f) dexp_f(b) for the basis b of each factor f, and the
    slice elements s_j themselves, since S_m = 1 (see `charts`).

    Two substitutions keep the span of each block, hence the rank. Factor f
    spans a nilpotent subalgebra U_f that holds a_f (see `OrbitChart`), so
    ad a_f is nilpotent on U_f, and both b -> y = sum_i (-ad a_f)^i (b) /
    (i+1)! and Ad(exp a_f) = exp(ad a_f) send U_f onto itself. So b stands
    in for y, and for k = m - 1 the last factor's Ad(exp a_m) is left out.
    `chart_from_json` refuses other factors. A semisimple chart's rows are
    then [b, Ad(exp a_2) x_s] for b in u- and u, with no conjugated column;
    nilpotent and mixed charts rank the rows of the g^-1 frame.

    ``frame`` (`_rank_frame`) makes two more changes that keep the rank.
    Its plain blocks f are ranked as [b, Ad(S_k) core], without
    Ad(S_k S_f^-1): every factor g with f < g < k normalizes U_f, so ad
    a_g maps U_f into U_f and Ad(S_k S_f^-1) = prod exp(-ad a_g) maps U_f
    onto U_f, and the block's span [U_f, Ad(S_k) core] is unchanged
    (`charts._plain_blocks`). On a built mixed chart this leaves only u-
    conjugated. Its order permutes the flattened entries of every row
    alike, a column permutation. A frame with no order and no plain block
    ranks the rows above as they are.

    The rank does not depend on row order. The slice elements come first,
    then the factor blocks from the last factor to the first: sparse rows
    with small integers pivot first and the dense rows are eliminated
    against them. The sl10 mixed chart of CI's scale smoke ranks the same
    rows as in the g^-1 frame, and four of its ranks took 0.15 s in this
    order against 0.42-0.44 s in parameter order (Python 3.11, 2-vCPU
    Xeon guest).

    The columns come from `charts._core_brackets` on the chart's own
    ``supports``: an unconjugated basis element of at most n nonzeros, such
    as the E_ij of a diagonal grading, is bracketed through its support
    (`linalg._support_bracket`, O(n nnz(b))), and a denser one, such as
    the kernel vectors of a non-diagonal grading, by `commutator`. The
    numerators of each column, permuted by the order, go to `_span_rank`
    as one integer row; it divides the row by its content, which keeps the
    rank, and eliminates all rows once.
    """
    blocks = _core_brackets(vp, chart.factors, chart.slice_basis, _frame_index(chart),
                            frame.plain, chart.supports[0])
    order = frame.order
    return _span_rank([c.nums if order is None else order(c.nums)
                       for block in reversed(blocks) for c in block])


def _power_walk(m: RatMatrix, ranked: bool) -> tuple:
    """(sums, ranks) of the square m from one walk `_powers`: sums =
    [tr(m^k) for k = 1 .. n] and, if ``ranked``, ranks = [rank(m^k) for
    k = 1 .. n-1], else None. The powers past the first zero one, of trace
    and rank 0, are not formed."""
    n = m.rows
    powers = _powers(m)
    sums = [p.trace() for p in powers] + [ZERO] * (n - len(powers))
    if not ranked:
        return sums, None
    ranks = [rank(p) for p in powers[:n - 1] if not p.is_zero()]
    return sums, ranks + [0] * (n - 1 - len(ranks))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _diagonal_conjugate(m: RatMatrix, rng: SplitMix64) -> RatMatrix:
    """d m d^-1 for a random determinant-one diagonal d = diag(e_1, ...,
    e_(n-1), 1 / P), with each e_i drawn from 1..9 and P their product.

    Computed on the numerators: D = P d = (e_1 P, ..., e_(n-1) P, 1) is
    integral with d_i / d_j = D_i / D_j, so entry (i, j) is
    m_ij D_i (L / D_j) over den L, with L = lcm(D).
    """
    n = m.rows
    entries = [rng.randint(1, 9) for _ in range(n - 1)]
    prod = math.prod(entries)
    scales = [e * prod for e in entries] + [1]
    lcm = math.lcm(*scales)
    inverse = [lcm // s for s in scales]
    return _matrix(n, n, [x * scales[k // n] * inverse[k % n] if x else 0
                          for k, x in enumerate(m.nums)], m.den * lcm)


def _sampler(chart: OrbitChart, nil: OrbitChart | None, rng: SplitMix64):
    """The draw of one random parameter tuple of ``chart`` from ``rng``: its
    factor parameters, then, if it has a slice, the coordinates of a random
    point of the group-orbit slice of ``nil``, the nilpotent chart (carrying
    its scaffolding) whose slice ``chart`` shares.

    The point is Ad(exp(y) d)(base slice point) with y a random element of
    u and d a determinant-one diagonal matrix when the algebra of
    ``chart`` has family "sl", the grading element of ``nil`` is diagonal
    and the shift of ``chart`` is diagonal or absent (`_is_diagonal`;
    otherwise d = 1), so membership in the slice holds by construction.
    On a mixed chart such a d commutes with the diagonal shift x_s, so it
    lies in the group of the Levi c(x_s) that the inner chart ``nil``
    lives on. exp(u) is the whole unipotent group U, and such a d
    normalizes U, so one exponential reaches every point that a product of
    them would.

    The point is solved in ``nil.slice_span``, which the chart built with
    its base coordinates. The supports of u and the choice of d are worked
    out once, here; each draw takes the factor parameters, the coefficients
    of y and the entries of d, in that order. Draws repeat on small charts: a
    rational takes 41 values (`SplitMix64.fraction`), an entry of d 9.
    """
    free = chart.param_count - len(chart.slice_basis)
    if not chart.slice_basis:
        return lambda: tuple(rng.fraction() for _ in range(free))
    pd = nil.parabolic
    n = nil.algebra.ambient_size
    supports = [_support(b) for b in pd.u]
    base = nil.base_element.matrix
    torus = (chart.algebra.family == "sl" and _is_diagonal(pd.grading.grading_element.matrix)
             and (chart.shift is None or _is_diagonal(chart.shift)))

    def draw() -> tuple:
        params = [rng.fraction() for _ in range(free)]
        coeffs = [rng.fraction() for _ in supports]
        exp_y, exp_neg = _exp_series(_lincomb(coeffs, supports, n, n))
        point = _diagonal_conjugate(base, rng) if torus else base
        coords = nil.slice_span.coords_of(exp_y * point * exp_neg)
        if coords is None:
            raise AssertionError("sampled orbit point left the slice")
        return tuple(params) + coords

    return draw


def _same_flat_data(a: OrbitChart, b: OrbitChart) -> bool:
    return (a.case_tag == b.case_tag and a.factors == b.factors and a.shift == b.shift
            and a.slice_basis == b.slice_basis and a.slice_base == b.slice_base)


# ---------------------------------------------------------------------------
# Chart verification
# ---------------------------------------------------------------------------


def verify_chart(x: LieElement, chart: OrbitChart, seed: int,
                 samples: int = 10) -> VerificationReport:
    """Run the full exact check battery on ``chart`` for x.

    Every evaluation check runs on ``chart`` itself. A chart without
    construction scaffolding (one from `chart_from_json`) borrows it from
    the chart that `build_chart` makes for (x, seed); the report
    then also checks that the rebuilt chart's flat data equal the given
    chart's (``rebuilt_chart_identity``), so ``seed`` must be the seed the
    given chart was built with. A negative ``samples`` raises ValueError
    before any work.

    Each distinct tuple drawn is evaluated once; a repeat reuses its rank.
    ``injectivity_sampling`` expects one value per distinct tuple drawn
    (``samples`` less the repeats kept). ``char_poly_preserved`` compares
    the power sums of the value of each distinct tuple and of the base
    value (only when it differs from x) with those of x;
    ``jordan_type_preserved`` compares the ranks of the powers from the
    same walk, `_power_walk` (see the module docstring).
    ``u2_differs_from_u`` reads the parabolic of ``nil``, the nilpotent
    chart or inner chart, else the semisimple chart's.
    ``dimension_identity`` and ``centralizer_composition`` read rank(ad x),
    and rank(ad x_n) in the Levi, as ``orbit_dim`` of x and of x_n.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    algebra = x.algebra
    rng = SplitMix64(seed)
    checks: List[Check] = []
    scaffold = chart
    if chart.parabolic is None or (chart.inner is not None
                                   and chart.inner.parabolic is None):
        scaffold = build_chart(x, seed)
        checks.append(_agrees("rebuilt_chart_identity", True,
                              _same_flat_data(chart, scaffold)))
    nil = scaffold if scaffold.case_tag == "nilpotent" else scaffold.inner

    checks.append(_agrees("dimension_identity", x.orbit_dim, chart.param_count))

    if nil is not None:
        name = "tangent_identity" if nil is scaffold else "inner_tangent_identity"
        checks.append(_tangent_check(nil, name))
    if chart.case_tag == "mixed":
        inner = chart.inner
        checks.append(_agrees("centralizer_composition", algebra.dim - x.orbit_dim,
                              inner.algebra.dim - inner.base_element.orbit_dim))

    frame = _rank_frame(chart, scaffold)
    base_vp = _value_pass(chart, _as_fractions(chart.base_params))
    base_value = base_vp.value
    checks.append(_agrees("base_point_identity", True, base_value == x.matrix))
    checks.append(_agrees("jacobian_rank_base", chart.param_count,
                          _jacobian_rank(chart, base_vp, frame)))

    evaluated = {}  # each distinct tuple drawn: (its value, its Jacobian rank)
    ranks = []
    # Slice coordinates are drawn in the scaffold's slice; a given chart whose
    # slice has another dimension cannot take them (rebuilt_chart_identity fails).
    sampled = samples if len(chart.slice_basis) == len(scaffold.slice_basis) else 0
    draw = _sampler(chart, nil, rng) if sampled else None
    for _ in range(sampled):
        # Resample coinciding tuples so the samples stay diverse; a small
        # chart can run out of fresh ones, and then the 33rd draw's repeat is kept.
        for _draw in range(33):
            params = draw()
            seen = evaluated.get(params)
            if seen is None:
                vp = _value_pass(chart, params)
                seen = evaluated[params] = (vp.value, _jacobian_rank(chart, vp, frame))
                break
        ranks.append(seen[1])
    values = [value for value, _ in evaluated.values()]
    checks.append(_agrees("jacobian_rank_samples", [chart.param_count] * samples, ranks))
    repeats = sampled - len(evaluated)
    checks.append(_agrees("injectivity_sampling", samples - repeats, len(set(values))))

    # one walk of the powers of x and of each value (the base value only if needed)
    nilpotent = chart.case_tag == "nilpotent"
    target_sums, base_ranks = _power_walk(x.matrix, nilpotent)
    walks = [_power_walk(v, nilpotent) for v in values]
    # equal matrices have equal power sums
    preserved = (all(sums == target_sums for sums, _ in walks)
                 and (base_value == x.matrix or _power_walk(base_value, False)[0] == target_sums))
    checks.append(_agrees("char_poly_preserved", True, preserved))

    if nilpotent:
        observed_ranks = sorted({tuple(ranks) for _, ranks in walks})
        checks.append(Check("jordan_type_preserved", [base_ranks],
                            [list(r) for r in observed_ranks],
                            not values or observed_ranks == [tuple(base_ranks)]))
    checks.append(Check("u2_differs_from_u", None,
                        (nil or scaffold).parabolic.u2_differs_from_u, True))

    subject = {
        "algebra": algebra.label,
        "element": matrix_to_json(x.matrix),
        "case": chart.case_tag,
    }
    return VerificationReport(subject, seed, samples, checks)


def _tangent_check(nil_chart: OrbitChart, name: str) -> Check:
    """dim [e, p] == dim u2, as the rank of the matrices [e, b], b in p: the
    coordinate map is injective, so it is the rank of ad e on p."""
    pd = nil_chart.parabolic
    e = nil_chart.base_element.matrix
    return _agrees(name, len(pd.u2), _span_rank([commutator(e, b).nums for b in pd.p]))


# ---------------------------------------------------------------------------
# Reductive-centralizer suite
# ---------------------------------------------------------------------------


def check_centralizer_reductive(x: LieElement) -> bool:
    """Trace-form proxy: the Gram matrix on the matrices ``x.centralizer``
    spanning c(x) is nonsingular."""
    return det(trace_form_gram(x.centralizer)) != 0


def redstab_suite(x: LieElement, seed: int,
                  chart: OrbitChart | None = None) -> VerificationReport:
    """Semisimplicity, the reductivity proxy, and the Levi witness, cross-checked.

    ``chart`` is the chart built for (x, seed), if there is one. A chart of
    x that carries its scaffolding answers both questions without a second
    Jordan test: x is semisimple exactly when the chart is (its Jordan split
    gave x_n = 0), and then its witness grading is the grading the search
    would find (same Levi, same seed). Only without such a chart is
    semisimplicity tested on x and, for semisimple x, c(x) built as a
    `LieAlgebra` for the search. The proxy forms its Gram matrix on the
    matrices ``x.centralizer``, and `_zero_piece_matches` reads their count:
    they are the matrices a semisimple x's chart built its Levi on.
    """
    algebra = x.algebra
    own = (chart is not None and chart.parabolic is not None
           and chart.algebra is algebra and chart.base_element.matrix == x.matrix)
    semisimple = chart.case_tag == "semisimple" if own else is_semisimple_matrix(x.matrix)
    proxy = check_centralizer_reductive(x)
    checks: List[Check] = [_agrees("semisimple_iff_reductive", semisimple, proxy)]
    if semisimple:
        if own:
            grading = chart.parabolic.grading
        else:
            try:
                grading = _witness_grading(algebra, centralizer_basis(x), seed, x)
            except WitnessNotFoundError:
                grading = None
        found = grading is not None
        witness_json = matrix_to_json(grading.grading_element.matrix) if found else None
        checks.append(Check("levi_witness_found", True, witness_json, found))
        checks.append(_agrees("witness_zero_piece_matches_centralizer", True,
                              found and _zero_piece_matches(grading, x.matrix, len(x.centralizer))))
    else:
        checks.append(_agrees("nonsemisimple_not_reductive", False, proxy))
    subject = {
        "algebra": algebra.label,
        "element": matrix_to_json(x.matrix),
        "semisimple": semisimple,
    }
    return VerificationReport(subject, seed, 0, checks)


# ---------------------------------------------------------------------------
# Classification scaffold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClassId:
    """Chevalley-invariant vector (for sl(n): c_(n-2), ..., c_0 of the
    characteristic polynomial); identifies the unique semisimple orbit in a
    fiber of the adjoint quotient. The all-zero vector is the zero orbit."""

    invariant_vector: tuple

    def is_zero(self) -> bool:
        return all(not c for c in self.invariant_vector)


def class_id_to_json(cid: OrbitClassId) -> list:
    return [rational_str(c) for c in cid.invariant_vector]


def invariants(x: LieElement) -> OrbitClassId:
    """Adjoint-invariant coordinates of x (sl only)."""
    if x.algebra.family != "sl":
        raise ValueError("invariants are implemented for sl algebras only")
    n = x.algebra.ambient_size
    p = x.char_poly
    coeffs = p.coefficients + (ZERO,) * (n + 1 - len(p.coefficients))
    if coeffs[n - 1] != 0:
        raise AssertionError("trace coefficient nonzero for a traceless matrix")
    return OrbitClassId(tuple(coeffs[k] for k in range(n - 2, -1, -1)))


def hamiltonian_class(x: LieElement) -> OrbitClassId:
    """Class of the unique semisimple orbit in the fiber through x.

    Rejects nilpotent x, whose semisimple part vanishes: the zero orbit has
    no nonzero semisimple representative. `LieElement.is_nilpotent` reads
    char_poly(x) = t^n, so that test walks no power of x, and it comes
    before the family check of `invariants`. char_poly(x) = char_poly(x_s).
    """
    if x.is_nilpotent():
        raise ZeroSemisimplePartError("semisimple part is zero")
    return invariants(x)


def kostant_rep(n: int, class_id: OrbitClassId) -> LieElement:
    """Semisimple representative of the class: the Jordan-semisimple part of
    the companion matrix of t^n + c_(n-2) t^(n-2) + ... + c_0."""
    vec = class_id.invariant_vector
    if len(vec) != n - 1:
        raise ValueError(f"class vector must have length {n - 1}")
    if class_id.is_zero():
        raise ValueError("the zero class is the zero orbit; no representative")
    low_coeffs = list(reversed(vec)) + [ZERO]  # c_0 ... c_(n-2), then c_(n-1) = 0
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = ONE
    for i in range(n):
        rows[i][n - 1] = -low_coeffs[i]
    companion = build_classical("sl", n).element_from_matrix(RatMatrix.from_rows(rows))
    return jordan_decompose(companion).semisimple
