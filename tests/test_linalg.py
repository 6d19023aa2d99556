"""The one exact elimination against the eliminations it replaced."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

import ohg.linalg
from ohg.errors import InputError
from ohg.linalg import (
    Domain,
    echelon_extend,
    is_prime,
    mat_vec,
    nullity,
    nullspace,
    rank,
)

from oracles import oracle_nullspace, oracle_rank, oracle_rank_int

FIELDS = (0, 2, 3, 5, 7)
# Full row rank over every field by its second column, so ``rank`` stops
# before the last three.
WIDE = [[1, 0, 1, 1, 2], [0, 1, 1, 2, 1]]


@st.composite
def matrices(draw):
    """Small integer matrices, 1xn and nx1 included, up to 8 columns wide
    so that many have full row rank before their last column, with rows
    and columns zeroed out on request."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 8))
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
@example(WIDE, 0)
@example(WIDE, 2)
@example(WIDE, 3)
@example(WIDE, 5)
@example(WIDE, 7)
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
    exactly when it raises the rank of the columns so far; otherwise the
    dependency read off the reduction is nonzero, maps the kept columns
    and the new one to zero, and is normalised as ``nullspace`` is."""
    domain = Domain(char)
    basis = ()
    kept = []
    for c in range(len(rows[0])):
        prefix = [row[:c + 1] for row in rows]
        extended, dependency = echelon_extend(
            basis, [row[c] for row in rows], domain)
        assert (extended is None) == (
            rank(prefix, domain) == len(basis)), (c, basis)
        assert (extended is None) != (dependency is None)
        if extended is not None:
            assert extended[:-1] == basis
            basis = extended
            kept.append(c)
            continue
        cols = [[row[k] for k in kept + [c]] for row in rows]
        assert len(dependency) == len(kept) + 1 and any(dependency)
        assert not any(mat_vec(cols, dependency, domain))
        assert dependency == oracle_nullspace(cols, domain)[0]
    assert len(basis) == oracle_rank(rows, char or None)


def test_rank_stops_once_every_row_has_a_pivot(monkeypatch):
    """Columns after full row rank are dependent and are never reduced."""
    import ohg.linalg

    calls = []

    def counted(basis, vec, domain):
        calls.append(vec)
        return echelon_extend(basis, vec, domain)

    monkeypatch.setattr(ohg.linalg, "echelon_extend", counted)
    for char in FIELDS:
        calls.clear()
        assert rank(WIDE, Domain(char)) == 2
        assert calls == [(1, 0), (0, 1)]


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_10_to_the_5(self):
        assert [n for n in range(-3, 10**5) if is_prime(n)] \
            == [n for n in range(-3, 10**5) if _trial_division(n)]

    @pytest.mark.parametrize("n", (
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
        321197185,  # Carmichael numbers
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # ... and to every prime base up to 23
    ))
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes_below_2_to_the_64(self):
        for p in (2**31 - 1, 2**61 - 1, 2**64 - 59):
            assert is_prime(p)
        assert not is_prime((2**31 - 1) * (2**31 + 11))
        assert not is_prime(2**64 - 1)
        start = time.perf_counter()
        assert Domain.prime_field(2**61 - 1).char == 2**61 - 1
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", (2**64, 2**64 + 13,
                                   340282366920938463463374607431768211507))
    def test_characteristics_from_2_to_the_64_are_refused(self, p):
        for make in (lambda: Domain.prime_field(p), lambda: Domain(p),
                     lambda: Domain.coerce(str(p)), lambda: is_prime(p)):
            with pytest.raises(InputError, match=r"2\^64"):
                make()

    def test_one_primality_test_per_construction(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(ohg.linalg, "is_prime", counted)
        for make in (Domain.prime_field, Domain, Domain.coerce,
                     lambda p: Domain.coerce(str(p))):
            calls.clear()
            assert make(7).char == 7
            assert calls == [7]
        calls.clear()
        assert Domain.rationals().is_rational and calls == []
