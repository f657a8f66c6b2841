"""so(n) and sp(n) elements built in one place: the strictly upper basis
elements and the dense Cayley conjugates of diagonal, nilpotent and mixed
elements. It needs only the standard library and orbitcharts, not pytest:
`conftest` re-exports it for the tests, and `.github/scale_elements.py`
builds its so8 and sp8 Cayley cases and its upper-triangular elements
with it."""

from fractions import Fraction

from orbitcharts.linalg import RatMatrix


def diag_matrix(values):
    n = len(values)
    return RatMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def fraction_inverse(rows):
    """The inverse of the square Fraction row list ``rows`` by Gauss-Jordan
    elimination in Fractions, or None when it is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def upper_basis(algebra, values=None):
    """The strictly upper-triangular basis elements of ``algebra``; with
    ``values``, only those that commute with diag(values)."""
    n = algebra.ambient_size
    return [b for b in algebra.basis
            if all(not b.at(i, j) for i in range(n) for j in range(i + 1))
            and (values is None or all(not b.at(i, j) or values[i] == values[j]
                                       for i in range(n) for j in range(n)))]


CAYLEY_KINDS = ("diagonal", "nilpotent", "mixed")


def cayley_base(algebra, kind):
    """The so(n) or sp(n) element that `cayley_conjugate` conjugates, with
    k = n // 2: diag(k, ..., 1, (0), -1, ..., -k) ("diagonal"), the sum of
    the strictly upper basis elements ("nilpotent"), or diag(1, ..., 1,
    (0), -1, ..., -1) plus the strictly upper basis elements that commute
    with it ("mixed"); its x_n is regular in the gl(k) of the Levi."""
    n = algebra.ambient_size
    k = n // 2
    if kind == "diagonal":
        return diag_matrix(list(range(k, 0, -1)) + [0] * (n % 2) + list(range(-1, -k - 1, -1)))
    values = None if kind == "nilpotent" else [1] * k + [0] * (n % 2) + [-1] * k
    m = RatMatrix.zeros(n, n) if values is None else diag_matrix(values)
    for b in upper_basis(algebra, values):
        m = m + b
    return m


def cayley_conjugate(algebra, m, coords):
    """g m g^-1 for the Cayley transform g = (I - A)^-1 (I + A) of A, the
    matrix of the basis coordinates ``coords`` in so(n) or sp(n), or None
    when I - A is singular. g preserves the form of the algebra, so the
    result is a dense element of the orbit of m; g^-1 = (I + A)^-1 (I - A),
    and I + A is invertible with I - A, since the eigenvalues of A come in
    pairs +-lambda."""
    n = algebra.ambient_size
    a, one = algebra.matrix_of(coords), RatMatrix.identity(n)
    inverse = fraction_inverse((one - a).row_lists())
    if inverse is None:
        return None
    g = RatMatrix.from_rows(inverse) * (one + a)
    g_inv = RatMatrix.from_rows(fraction_inverse((one + a).row_lists())) * (one - a)
    assert g * g_inv == one
    return g * m * g_inv


def cayley_element(algebra, kind, rng):
    """`cayley_conjugate` of `cayley_base(algebra, kind)` by the first
    coordinates drawn from ``rng``, one ``randint(-1, 1)`` per basis element,
    for which I - A is invertible."""
    base = cayley_base(algebra, kind)
    while True:
        x = cayley_conjugate(algebra, base, [rng.randint(-1, 1) for _ in range(algebra.dim)])
        if x is not None:
            return x
