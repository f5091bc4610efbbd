"""Exact linear algebra on constant matrices."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import Cyc, totient
from wildcycle.matrices import Echelon, const_rank

small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def vector_lists(draw):
    """Vectors over Q or Q(zeta_12); many are combinations of earlier ones."""
    order = draw(st.sampled_from([1, 12]))
    n = draw(st.integers(min_value=1, max_value=4))

    def scalar():
        coeffs = draw(st.lists(small_ints, min_size=totient(order),
                               max_size=totient(order)))
        return Cyc(order, [Fraction(c) for c in coeffs])

    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        if vectors and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1,
                                  max_size=3))
            vec = [Cyc.zero(order)] * n
            for p in picks:
                c = scalar()
                vec = [x + c * y for x, y in zip(vec, p)]
        else:
            vec = [scalar() for _ in range(n)]
        vectors.append(vec)
    return vectors


def greedy_rank_selection(vectors):
    picked = []
    for idx, v in enumerate(vectors):
        trial = [vectors[j] for j in picked] + [v]
        columns = [[w[i] for w in trial] for i in range(len(v))]
        if const_rank(columns) == len(trial):
            picked.append(idx)
    return picked


@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_echelon_keeps_what_greedy_rank_keeps(vectors):
    span = Echelon()
    kept = [idx for idx, v in enumerate(vectors) if span.add(v)]
    assert kept == greedy_rank_selection(vectors)
