"""Exact linear algebra over the rationals and over prime fields.

One fraction-free Gauss-Jordan elimination serves every domain: rank,
nullity and nullspace all read its reduced rows.  Rational rows stay
arbitrary-precision integers, kept small by dividing out each row's gcd;
prime-field rows are reduced modulo p.  ``echelon_extend`` grows a
forward-echelon basis one vector at a time with the same row update, for
callers that test many sets sharing a prefix, and reads the dependency
off the reduction when a vector falls in the span.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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


def _eliminate(rows, domain: Domain) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: (reduced rows, pivot columns).

    Each pivot clears its column in every other row, so the nonzero rows
    are the reduced row echelon form up to one nonzero factor per row; as
    that form is unique, every reading below is independent of the pivot
    order.  Over the rationals a row becomes ``d*row - f*pivot_row`` and is
    then divided by the gcd of its entries; over GF(p) every entry is
    reduced modulo p.
    """
    nr, nc = _check_rect(rows)
    p = domain.char
    m = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(nc):
        top = len(pivots)
        if top == nr:
            break
        piv = next((r for r in range(top, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pivot_row = m[top]
        d = pivot_row[col]
        for r in range(nr):
            f = m[r][col]
            if r != top and f:
                m[r] = _cancel(m[r], pivot_row, d, f, p)
        pivots.append(col)
    return m, pivots


def _cancel(x, y, d, f, p) -> list[int]:
    """The one row update of every elimination here: ``d*x - f*y``, which
    clears the entry where ``x`` holds f and ``y`` holds d; a ``y`` shorter
    than ``x`` reads as zeros past its end.  Over the rationals (p = 0)
    the result is divided by the gcd of its entries; over GF(p) every
    entry is reduced modulo p."""
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
    dependency)`` comes back normalised as ``nullspace`` normalises, to a
    primitive integer tuple with positive leading entry over the
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
    lead = next((i for i in range(n) if x[i]), None)
    if lead is not None:
        return basis + ((lead, x),), None
    coeffs = x[n:]
    if p:
        inv = pow(coeffs[-1], -1, p)
        return None, tuple(a * inv % p for a in coeffs)
    return None, _primitive(coeffs)


def rank(rows, domain: Domain) -> int:
    return len(_eliminate(rows, domain)[1])


def nullity(rows, domain: Domain) -> int:
    _, nc = _check_rect(rows)
    return nc - rank(rows, domain)


def nullspace(rows, domain: Domain) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column.

    Rational vectors are scaled to primitive integer tuples with positive
    leading entry; prime-field vectors take values in 0..p-1, with entry 1
    at their own free column and 0 at the other free columns (over GF(3),
    ``nullspace([[1, 1]])`` is ``[(2, 1)]``).
    """
    _, nc = _check_rect(rows)
    m, pivots = _eliminate(rows, domain)
    p = domain.char
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = [0] * nc
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            if p:
                vec[pc] = -m[r][fc] * pow(m[r][pc], -1, p) % p
            else:
                vec[pc] = Fraction(-m[r][fc], m[r][pc])
        basis.append(tuple(vec) if p else primitive_integer(vec))
    return basis


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, leading entry positive."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    return _primitive([int(f * denom) for f in fracs])


def _primitive(ints) -> tuple[int, ...]:
    """Divide integers by their gcd, signed so the leading nonzero entry
    is positive; a zero vector stays as it is."""
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


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
