"""The one exact elimination against the eliminations it replaced."""

from hypothesis import example, given, settings, strategies as st

from ohg.linalg import (
    Domain,
    echelon_extend,
    mat_vec,
    nullity,
    nullspace,
    rank,
)

from oracles import oracle_nullspace, oracle_rank, oracle_rank_int

FIELDS = (0, 2, 3, 5, 7)


@st.composite
def matrices(draw):
    """Small integer matrices, 1xn and nx1 included, with rows and
    columns zeroed out on request."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    for r in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
        rows[r] = [0] * nc
    for c in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(FIELDS))
@example([[0, 0, 0]], 0)
@example([[0], [0]], 2)
@example([[2, 4, -6]], 0)
@example([[3], [6], [0]], 3)
@example([[1, 1], [1, 1]], 2)
def test_nullspace_matches_rref_oracle(rows, char):
    domain = Domain(char)
    basis = nullspace(rows, domain)
    assert basis == oracle_nullspace(rows, domain)
    assert rank(rows, domain) == oracle_rank(rows, char or None)
    if not char:
        assert rank(rows, domain) == oracle_rank_int(rows)
    assert len(basis) == nullity(rows, domain)
    for vec in basis:
        assert not any(mat_vec(rows, vec, domain))



@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(FIELDS))
@example([[3, 6, 1]], 3)
@example([[0, 0], [0, 0]], 0)
def test_echelon_extend_tracks_the_rank(rows, char):
    """Adding the columns one at a time, a column extends the basis
    exactly when it raises the rank of the columns so far."""
    domain = Domain(char)
    basis = ()
    for c in range(len(rows[0])):
        prefix = [row[:c + 1] for row in rows]
        extended = echelon_extend(basis, [row[c] for row in rows], domain)
        assert (extended is None) == (
            rank(prefix, domain) == len(basis)), (c, basis)
        if extended is not None:
            assert extended[:-1] == basis
            basis = extended
    assert len(basis) == oracle_rank(rows, char or None)
