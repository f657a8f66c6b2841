from fractions import Fraction

import pytest

from conftest import (
    diag_matrix,
    elem,
    element,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_scale,
    poly_sub,
    unit_bidiagonal,
    upper_basis,
)
from orbitcharts import jordan
from orbitcharts.charts import exp_nilpotent
from orbitcharts.jordan import _inverse, jordan_decompose
from orbitcharts.liealg import LieAlgebra, ad_matrix, build_classical
from orbitcharts.linalg import (
    Polynomial,
    RatMatrix,
    char_poly,
    commutator,
    is_semisimple_matrix,
    kernel_basis,
    rank,
    squarefree_part,
    vstack,
)
from orbitcharts.rng import SplitMix64

F = Fraction


def test_nilpotent_input(sl2):
    e = element(sl2, [[0, 1], [0, 0]])
    pair = jordan_decompose(e)
    assert pair.semisimple.is_zero()
    assert pair.nilpotent.matrix == e.matrix


def test_distinct_eigenvalues_is_semisimple(sl2):
    x = element(sl2, [[1, 1], [0, -1]])
    pair = jordan_decompose(x)
    assert pair.nilpotent.is_zero()
    assert pair.semisimple.matrix == x.matrix


def test_mixed_block_example(sl3):
    x = element(sl3, [[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    pair = jordan_decompose(x)
    assert pair.semisimple.matrix == diag_matrix([1, 1, -2])
    assert pair.nilpotent.matrix == elem(3, 0, 1)


def test_zero_input(sl3):
    pair = jordan_decompose(sl3.zero_element())
    assert pair.semisimple.is_zero() and pair.nilpotent.is_zero()


def _random_element(algebra, rng):
    return algebra.element([rng.fraction() for _ in range(algebra.dim)])


@pytest.mark.parametrize("n", [2, 3])
def test_pair_invariants_random(n):
    algebra = build_classical("sl", n)
    rng = SplitMix64(31 + n)
    for _ in range(50):
        x = _random_element(algebra, rng)
        pair = jordan_decompose(x)
        xs, xn = pair.semisimple.matrix, pair.nilpotent.matrix
        assert xs + xn == x.matrix
        assert commutator(xs, xn).is_zero()
        assert pair.nilpotent.is_nilpotent()
        assert is_semisimple_matrix(xs)
        # rerun gives the identical pair
        again = jordan_decompose(x)
        assert again.semisimple.matrix == xs and again.nilpotent.matrix == xn


def test_char_poly_preserved(sl3):
    rng = SplitMix64(37)
    for _ in range(25):
        x = _random_element(sl3, rng)
        pair = jordan_decompose(x)
        assert char_poly(pair.semisimple.matrix) == char_poly(x.matrix)


def test_centralizer_is_intersection(sl3):
    # ker ad x = ker ad x_s  intersect  ker ad x_n
    rng = SplitMix64(41)
    for _ in range(20):
        x = _random_element(sl3, rng)
        pair = jordan_decompose(x)
        ad_x = ad_matrix(x)
        stacked = vstack([ad_matrix(pair.semisimple), ad_matrix(pair.nilpotent)])
        dim_x = sl3.dim - rank(ad_x)
        dim_meet = sl3.dim - rank(stacked)
        assert dim_x == dim_meet
        for v in kernel_basis(ad_x):
            col = RatMatrix.from_rows([[c] for c in v])
            assert (stacked * col).is_zero()


# ---------------------------------------------------------------------------
# The Newton split against Chevalley's iteration
# ---------------------------------------------------------------------------


def _extended_gcd(a, b):
    """(g, u, v) with u*a + v*b = g and g monic: the extended Euclidean
    algorithm over `Polynomial`."""
    one, zero = Polynomial((1,)), Polynomial(())
    r0, r1, u0, u1, v0, v1 = a, b, one, zero, zero, one
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    inv = 1 / r0.coefficients[-1]
    return poly_scale(r0, inv), poly_scale(u0, inv), poly_scale(v0, inv)


def _chevalley_semisimple(m):
    """x_s by Chevalley's iteration x -> x - q(x) v(x), with q the squarefree
    part of char_poly(m) and v its Bezout cofactor: u*q + v*q' = 1."""
    q = squarefree_part(char_poly(m))
    g, u, v = _extended_gcd(q, q.derivative())
    assert g == Polynomial((1,))
    assert poly_add(poly_mul(u, q), poly_mul(v, q.derivative())) == g
    xs = m
    while not q.evaluate_matrix(xs).is_zero():
        xs = xs - q.evaluate_matrix(xs) * v.evaluate_matrix(xs)
    return xs


def _product(factors):
    return poly_mul(*(Polynomial(tuple(F(c) for c in f)) for f in factors))


def _companion(p):
    """The companion matrix of the monic p: ones below the diagonal and
    -c_0 .. -c_(n-1) in the last column."""
    n = p.degree
    return RatMatrix.from_rows(
        [[F(int(i == j + 1)) if j < n - 1 else -p.coefficients[i] for j in range(n)]
         for i in range(n)])


# monic, traceless, with repeated and non-rational roots; coefficients
# lowest degree first
COMPANION_CASES = {
    "(t-1)^3(t+1)^3(t^2-2)^2": [(-1, 1)] * 3 + [(1, 1)] * 3 + [(-2, 0, 1)] * 2,
    "(t-1)^2(t+2)": [(-1, 1)] * 2 + [(2, 1)],
    "(t^2-2)^2": [(-2, 0, 1)] * 2,
    "(t^2+1)^2(t^2-3)": [(1, 0, 1)] * 2 + [(-3, 0, 1)],
    "(t^3-2)^2": [(-2, 0, 0, 1)] * 2,
    "t^2(t^2+t+1)^2(t-2)": [(0, 1)] * 2 + [(1, 1, 1)] * 2 + [(-2, 1)],
}


def _conjugated_jordan_form(n, rng):
    """(g J g^-1, g D g^-1): J a traceless Jordan form with a random block
    structure and small eigenvalues, D its diagonal, g the product of a
    seeded unit upper- and lower-bidiagonal matrix, entries in {-1, 0, 1}."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    values = [F(rng.randint(-3, 3)) for _ in sizes[:-1]]
    values.append(-F(sum(s * v for s, v in zip(sizes, values)), sizes[-1]))
    diag = [v for s, v in zip(sizes, values) for _ in range(s)]
    linked = {sum(sizes[:k]) + j for k, s in enumerate(sizes) for j in range(s - 1)}
    nil = RatMatrix.from_rows([[int(j == i + 1 and i in linked) for j in range(n)]
                               for i in range(n)])
    u, u_inv = unit_bidiagonal([rng.randint(-1, 1) for _ in range(n - 1)])
    low, low_inv = unit_bidiagonal([rng.randint(-1, 1) for _ in range(n - 1)], upper=False)
    g, g_inv = low * u, u_inv * low_inv
    d = diag_matrix(diag)
    return g * (d + nil) * g_inv, g * d * g_inv


def _upper_nilpotent(algebra, rng):
    """An integer combination, coefficients in {-1, 0, 1}, of the strictly
    upper-triangular basis elements of ``algebra``."""
    n = algebra.ambient_size
    y = RatMatrix.zeros(n, n)
    for b in upper_basis(algebra):
        y = y + b.scale(rng.randint(-1, 1))
    return y


# x_s + x_n with [x_s, x_n] = 0: the nilpotent is a root vector of weight 0
SPLIT_MIXED_CASES = {
    "so5": ("so", 5, diag_matrix([1, 1, 0, -1, -1]), elem(5, 0, 1) - elem(5, 3, 4)),
    "sp4": ("sp", 4, diag_matrix([1, 1, -1, -1]), elem(4, 0, 1) - elem(4, 2, 3)),
}


def _assert_newton_equals_chevalley(algebra, m, expected_semisimple=None):
    pair = jordan_decompose(algebra.element_from_matrix(m))
    reference = _chevalley_semisimple(m)
    assert pair.semisimple.matrix == reference
    assert pair.nilpotent.matrix == m - reference
    if expected_semisimple is not None:
        assert reference == expected_semisimple


class TestNewtonEqualsChevalley:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_rational(self, n):
        algebra = build_classical("sl", n)
        rng = SplitMix64(500 + n)
        for _ in range(6):
            _assert_newton_equals_chevalley(algebra, _random_element(algebra, rng).matrix)

    @pytest.mark.parametrize("label", sorted(COMPANION_CASES))
    def test_companion(self, label):
        p = _product(COMPANION_CASES[label])
        m = _companion(p)
        assert char_poly(m) == p
        algebra = build_classical("sl", p.degree)
        _assert_newton_equals_chevalley(algebra, m)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_conjugated_jordan_forms(self, n):
        algebra = build_classical("sl", n)
        rng = SplitMix64(600 + n)
        for _ in range(8):
            m, semisimple = _conjugated_jordan_form(n, rng)
            _assert_newton_equals_chevalley(algebra, m, semisimple)

    @pytest.mark.parametrize("label", sorted(SPLIT_MIXED_CASES))
    def test_so_sp_mixed(self, label):
        family, n, d, e = SPLIT_MIXED_CASES[label]
        algebra = build_classical(family, n)
        assert commutator(d, e).is_zero() and not e.is_zero()
        rng = SplitMix64(700 + n)
        for _ in range(4):
            y = _upper_nilpotent(algebra, rng)
            g, g_inv = exp_nilpotent(y), exp_nilpotent(-y)
            _assert_newton_equals_chevalley(algebra, g * (d + e) * g_inv, g * d * g_inv)


def _own_part_cases(family, n):
    """The zero element of the classical algebra (family, n), and seeded
    nilpotent and semisimple elements of it: strictly upper-triangular and
    diagonal integer combinations of its basis, conjugated by exp of a
    lower-triangular nilpotent."""
    algebra = build_classical(family, n)
    rng = SplitMix64(910 + n)
    diagonal = [b for b in algebra.basis
                if all(not b.at(i, j) for i in range(n) for j in range(n) if i != j)]
    cases = [(algebra.zero_element(), "zero")]
    for _ in range(3):
        y = _upper_nilpotent(algebra, rng).transpose()
        g, g_inv = exp_nilpotent(y), exp_nilpotent(-y)
        nil = _upper_nilpotent(algebra, rng)
        d = RatMatrix.zeros(n, n)
        for b in diagonal:
            d = d + b.scale(rng.randint(-2, 2))
        cases.append((algebra.element_from_matrix(g * nil * g_inv), "nilpotent"))
        cases.append((algebra.element_from_matrix(g * d * g_inv), "semisimple"))
    return cases


@pytest.mark.parametrize("family,n", [("sl", 3), ("sl", 4), ("sl", 5), ("so", 5),
                                      ("so", 6), ("sp", 4), ("sp", 6)])
def test_nilpotent_or_semisimple_x_is_its_own_part(monkeypatch, family, n):
    # a nilpotent x is its own nilpotent part, a semisimple x its own
    # semisimple part; the other part is zero and no coordinates are solved
    cases = _own_part_cases(family, n)
    solved = []
    from_matrix = LieAlgebra.element_from_matrix
    monkeypatch.setattr(LieAlgebra, "element_from_matrix",
                        lambda algebra, m: solved.append(m) or from_matrix(algebra, m))
    for x, kind in cases:
        assert x.is_nilpotent() == (kind != "semisimple")
        pair = jordan_decompose(x)
        own, other = ((pair.nilpotent, pair.semisimple) if kind != "semisimple"
                      else (pair.semisimple, pair.nilpotent))
        assert own is x
        assert other.is_zero()
    assert solved == []


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_two_sided(self, n):
        rng = SplitMix64(800 + n)
        checked = 0
        while checked < 5:
            m = RatMatrix.from_rows([[rng.fraction() for _ in range(n)] for _ in range(n)])
            if rank(m) < n:
                continue
            inverse = _inverse(m)
            assert m * inverse == RatMatrix.identity(n)
            assert inverse * m == RatMatrix.identity(n)
            checked += 1

    def test_singular_is_an_internal_fault(self):
        with pytest.raises(ArithmeticError):
            _inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))

    @pytest.mark.parametrize("rows,inverses", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, -2]], 0),   # semisimple: q(x) = 0 at once
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 0),    # nilpotent: char_poly(x) = t^3
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),    # zero
        ([[1, 1, 0], [0, 1, 0], [0, 0, -2]], 1),   # one Newton step
    ], ids=["semisimple", "nilpotent", "zero", "mixed"])
    def test_newton_steps_invert(self, monkeypatch, sl3, rows, inverses):
        calls = []

        def counted(m):
            calls.append(m)
            return _inverse(m)

        monkeypatch.setattr(jordan, "_inverse", counted)
        jordan_decompose(element(sl3, rows))
        assert len(calls) == inverses

    def test_wrong_inverse_fails_within_the_step_bound(self, monkeypatch, sl4):
        # a correct step doubles the q-adic order, so ceil(log2 n) steps reach
        # x_s; with a wrong inverse the split must stop after n.bit_length()
        calls = []

        def doubled(m):
            calls.append(m)
            return _inverse(m).scale(2)

        monkeypatch.setattr(jordan, "_inverse", doubled)
        rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -3]]
        with pytest.raises(ArithmeticError, match="failed to converge"):
            jordan_decompose(element(sl4, rows))
        assert len(calls) <= (4).bit_length() + 1
