"""Exact linear algebra over the rationals and over prime fields.

One fraction-free elimination serves every domain: ``echelon_extend``
reduces one column against a forward-echelon basis and either extends
the basis or reads the column's dependency off the reduction.  Rank
counts the columns that extend it, and the nullspace collects the
dependencies of those that do not.  Circuit enumeration does not call
it per candidate: the walk in ``matroids.enumerate_circuits`` finishes
the same reduction from the residual a sibling candidate already
reached, in at most one row update of its own, and ends it with
``_settle``, which turns either result into a new pair or a normalised
dependency.  Rational rows stay arbitrary-precision integers, kept small
by dividing out each row's gcd; prime-field rows are reduced modulo p.
No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import gcd

from .errors import InputError


# The first twelve primes.  As strong-probable-prime bases they decide
# every n below 3.18 * 10^23 (Jiang and Deng, 2014; Sorenson and Webster,
# 2015), so every n below 2^64.
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, exactly, by deterministic Miller-Rabin.

    Only ``n`` below 2^64, well inside the range where the twelve bases
    are proved exact, is decided; a larger one raises ``InputError``.
    """
    if n >= 1 << 64:
        raise InputError(f"characteristic {n} is too large: primality is "
                         "decided exactly only below 2^64")
    if n < 2:
        return False
    for q in _WITNESS_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag: characteristic 0 (rationals) or a prime p."""

    char: int

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise InputError(f"{self.char} is not prime; use a prime field or the rationals")

    @classmethod
    def rationals(cls) -> Domain:
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> Domain:
        """GF(p).  0 is refused here, as ``Domain(0)`` is the rationals; a
        composite p and p >= 2^64 are refused by the constructor."""
        if p == 0:
            raise InputError("0 is not prime; use a prime field or the rationals")
        return cls(p)

    @classmethod
    def coerce(cls, spec) -> Domain:
        """Accept a Domain, None/'rational'/'Q', or a prime (int or digits)."""
        if isinstance(spec, Domain):
            return spec
        if spec is None:
            return cls.rationals()
        if isinstance(spec, str):
            if spec.lower() in ("q", "rational", "rationals"):
                return cls.rationals()
            if spec.isdigit():
                try:
                    p = int(spec)
                except ValueError:  # a digit int() rejects, such as '²'
                    raise InputError(
                        f"unknown coefficient domain {spec!r}") from None
                return cls.prime_field(p)
            raise InputError(f"unknown coefficient domain {spec!r}")
        if isinstance(spec, int) and not isinstance(spec, bool):
            return cls.prime_field(spec)
        raise InputError(f"unknown coefficient domain {spec!r}")

    @property
    def is_rational(self) -> bool:
        return self.char == 0

    def reduce(self, n: int) -> int:
        return n if self.char == 0 else n % self.char

    def label(self) -> str:
        return "Q" if self.char == 0 else f"GF({self.char})"

    def __str__(self) -> str:
        return self.label()


def _check_rect(rows) -> tuple[int, int]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise InputError("ragged matrix")
    return nr, nc


def _cancel(x, y, d, f, p) -> list[int]:
    """The row update of ``echelon_extend``: ``d*x - f*y``, which clears
    the entry where ``x`` holds f and ``y`` holds d; a ``y`` shorter than
    ``x`` reads as zeros past its end.
    Over the rationals (p = 0) the result is divided by the gcd of its
    entries; over GF(p) every entry is reduced modulo p."""
    if p:
        return [(d * a - f * b) % p
                for a, b in zip_longest(x, y, fillvalue=0)]
    row = [d * a - f * b for a, b in zip_longest(x, y, fillvalue=0)]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def echelon_extend(basis: tuple, vec, domain: Domain) -> tuple:
    """Add ``vec`` to a forward-echelon basis, or read off its dependency.

    ``basis`` is a tuple of (pivot, vector) pairs, each vector zero at the
    pivots before its own.  After the entries of ``vec`` every vector
    carries its coefficients over the columns added so far, one slot per
    position, so that it equals that combination of them; ``vec`` itself
    takes slot ``len(basis)`` with coefficient 1.  It is cleared at each
    pivot in turn by ``_cancel``, which updates both parts, with no back
    substitution.  Pivots lie among the first ``len(vec)`` entries only.

    Returns ``(extended basis, None)`` when a nonzero entry remains there;
    the new pair pivots at the first one.  Otherwise the coefficients are
    a dependency of the columns, nonzero at the new slot, and as the basis
    is independent they span the columns' nullspace: ``(None,
    dependency)`` comes back normalised, as ``nullspace`` returns it, to
    a primitive integer tuple with positive leading entry over the
    rationals and to last entry 1 over GF(p).  The input basis is left as
    it is, so extensions of one prefix share its pairs.
    """
    p = domain.char
    n = len(vec)
    x = [a % p for a in vec] if p else list(vec)
    x += [0] * len(basis)
    x.append(1)
    for pc, y in basis:
        f = x[pc]
        if f:
            x = _cancel(x, y, y[pc], f, p)
    pair, dependency = _settle(x, n, p)
    return (None if pair is None else basis + (pair,)), dependency


def _settle(x: list[int], n: int, p: int) -> tuple:
    """The end of a column reduction: ``((lead, x), None)`` when one of
    the first ``n`` entries of ``x`` is nonzero, ``lead`` the first such;
    otherwise ``(None, dependency)``, the coefficients past them
    normalised to a primitive integer tuple with positive leading entry
    over the rationals (p = 0) and to last entry 1 over GF(p)."""
    for lead in range(n):
        if x[lead]:
            return (lead, x), None
    coeffs = x[n:]
    if p:
        inv = pow(coeffs[-1], -1, p)
        return None, tuple([a * inv % p for a in coeffs])
    g = gcd(*coeffs)
    if next(filter(None, coeffs)) < 0:
        g = -g
    return None, tuple(coeffs) if g == 1 else tuple([a // g for a in coeffs])


def rank(rows, domain: Domain) -> int:
    """The number of columns, fed left to right, that extend the basis.
    Once it holds one vector per row every later column is dependent."""
    nr, _ = _check_rect(rows)
    basis = ()
    for col in zip(*rows):
        if len(basis) == nr:
            break
        basis = echelon_extend(basis, col, domain)[0] or basis
    return len(basis)


def nullity(rows, domain: Domain) -> int:
    _, nc = _check_rect(rows)
    return nc - rank(rows, domain)


def nullspace(rows, domain: Domain) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column: a column
    in the span of those before it, fed left to right to
    ``echelon_extend``.  Its vector is the dependency read off there, zero
    at every other free column: over the rationals a primitive integer
    tuple with positive leading entry, over GF(p) values in 0..p-1 with
    entry 1 at its own free column (over GF(3), ``nullspace([[1, 1]])``
    is ``[(2, 1)]``)."""
    _, nc = _check_rect(rows)
    basis = ()
    pivots: list[int] = []
    out = []
    for c, col in enumerate(zip(*rows)):
        extended, dependency = echelon_extend(basis, col, domain)
        if extended is not None:
            basis = extended
            pivots.append(c)
            continue
        entry = dict(zip(pivots + [c], dependency))
        out.append(tuple(entry.get(k, 0) for k in range(nc)))
    return out


def mat_vec(rows, vec, domain: Domain) -> tuple:
    """Exact matrix-vector product in the given domain."""
    nr, nc = _check_rect(rows)
    if len(vec) != nc:
        raise InputError("vector length does not match column count")
    out = []
    for r in rows:
        s = sum(a * b for a, b in zip(r, vec))
        out.append(s if domain.is_rational else s % domain.char)
    return tuple(out)
