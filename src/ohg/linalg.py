"""Exact linear algebra over the rationals and over prime fields.

Rational computations run on arbitrary-precision integers (fraction-free
elimination for ranks, Fraction arithmetic for nullspaces); prime-field
computations reduce modulo p.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
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
        if not is_prime(p):
            raise InputError(f"{p!r} is not prime; use a prime field or the rationals")
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
                return cls.prime_field(int(spec))
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


def rank_int(rows) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    nr, nc = _check_rect(rows)
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank


def rank(rows, domain: Domain) -> int:
    if domain.is_rational:
        return rank_int(rows)
    _check_rect(rows)
    return len(_rref_mod(rows, domain.char)[1])


def nullity(rows, domain: Domain) -> int:
    _, nc = _check_rect(rows)
    return nc - rank(rows, domain)


def _rref_fraction(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(nc):
        piv = next((r for r in range(rank_, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        m[rank_] = [x / m[rank_][col] for x in m[rank_]]
        for r in range(nr):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == nr:
            break
    return m, pivots


def _rref_mod(rows, p: int):
    m = [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(nc):
        piv = next((r for r in range(rank_, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        inv = pow(m[rank_][col], -1, p)
        m[rank_] = [(x * inv) % p for x in m[rank_]]
        for r in range(nr):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == nr:
            break
    return m, pivots


def nullspace(rows, domain: Domain) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column.

    Rational vectors are scaled to primitive integer tuples with positive
    leading entry; prime-field vectors take values in 0..p-1 with leading
    entry 1.
    """
    nr, nc = _check_rect(rows)
    if domain.is_rational:
        m, pivots = _rref_fraction(rows)
    else:
        m, pivots = _rref_mod(rows, domain.char)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * nc if domain.is_rational else [0] * nc
        vec[fc] = Fraction(1) if domain.is_rational else 1
        for r, pc in enumerate(pivots):
            if domain.is_rational:
                vec[pc] = -m[r][fc]
            else:
                vec[pc] = (-m[r][fc]) % domain.char
        if domain.is_rational:
            basis.append(primitive_integer(vec))
        else:
            basis.append(tuple(vec))
    return basis


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, leading entry positive."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


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
