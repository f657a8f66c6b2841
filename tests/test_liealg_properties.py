"""Property tests of the structure constants of sl, so and sp at random
coordinate vectors."""

import pytest

from orbitcharts.liealg import ad_matrix, build_classical
from orbitcharts.linalg import commutator, mat_vec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ALGEBRAS = ([("sl", n) for n in range(3, 7)] + [("so", n) for n in range(5, 9)]
            + [("sp", n) for n in (4, 6, 8)])


@pytest.mark.parametrize("family,n", ALGEBRAS)
@hypothesis.settings(derandomize=True, max_examples=5, deadline=None)
@hypothesis.given(data=st.data())
def test_ad_is_a_representation_and_matches_the_commutator(family, n, data):
    """ad [x, y] = [ad x, ad y], with [x, y] read from the structure
    constants as ad(x) y, and that element's matrix is the commutator."""
    algebra = build_classical(family, n)
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    vector = st.lists(coordinate, min_size=algebra.dim, max_size=algebra.dim)
    x, y = algebra.element(data.draw(vector)), algebra.element(data.draw(vector))
    ad_x, ad_y = ad_matrix(x), ad_matrix(y)
    z = algebra.element(mat_vec(ad_x, y.coords))
    assert ad_x * ad_y - ad_y * ad_x == ad_matrix(z)
    assert z.matrix == commutator(x.matrix, y.matrix)
