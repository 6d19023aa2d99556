"""The packed check of every witness that circuit enumeration reports."""

from itertools import product
from operator import mul

import pytest

import ohg.matroids
from ohg.linalg import Domain
from ohg.matroids import _packed_columns, enumerate_circuits
from ohg.model import OrientedHypergraph, make_complete_hypergraph

from oracles import oracle_prefix_circuits

MERSENNE_61 = Domain.prime_field(2**61 - 1)
SMALL = (Domain.rationals(), Domain.prime_field(5))


@pytest.mark.parametrize("sign", (1, -1))
def test_k4_over_a_61_bit_field_matches_the_prefix_basis_walk(sign):
    """Witness entries near 2^61 make every product in the packed dot
    product pass 64 bits."""
    g = make_complete_hypergraph(4, sign)
    got = enumerate_circuits(g, MERSENNE_61)
    assert got == oracle_prefix_circuits(g, MERSENNE_61)
    assert max(max(rep.witness) for rep in got).bit_length() == 61


@pytest.mark.parametrize("domain", (Domain.rationals(), Domain.prime_field(2),
                                    Domain.prime_field(3), MERSENNE_61),
                         ids=str)
def test_every_witness_keeps_the_bound(domain):
    """The bound of the docstring holds for every witness of K3 and K4."""
    for n in (3, 4):
        for sign in (1, -1):
            g = make_complete_hypergraph(n, sign)
            m = ohg.matroids.incidence_matrix(g, domain)
            columns = [list(col) for col in zip(*m.entries)]
            top = ohg.matroids.rank(m) + 1
            _, low, high, _ = _packed_columns(columns, n, domain.char, top)
            for rep in enumerate_circuits(g, domain):
                assert low <= min(rep.witness) and max(rep.witness) <= high


# The columns a = (2, 0), b = (0, 2) and c = (2, 2).  {a, b, c} is their
# one circuit, with the witness (1, 1, -1) over Q and (4, 4, 1) over GF(5).
COLUMNS = [[2, 0], [0, 2], [2, 2]]
RIGHT = {"Q": (1, 1, -1), "GF(5)": (4, 4, 1)}


def doubled_columns():
    return OrientedHypergraph.build(
        ["v1", "v2"], ["a", "b", "c"],
        [("i1", "v1", "a", 1), ("i2", "v1", "a", 1),
         ("i3", "v2", "b", 1), ("i4", "v2", "b", 1),
         ("i5", "v1", "c", 1), ("i6", "v1", "c", 1),
         ("i7", "v2", "c", 1), ("i8", "v2", "c", 1)])


def refused(monkeypatch, domain, wrong):
    """Enumeration with ``wrong`` handed out in place of the right witness
    stops at the witness check."""
    right = RIGHT[domain.label()]
    g = doubled_columns()
    assert [(rep.edges, rep.witness) for rep in enumerate_circuits(g, domain)] \
        == [(("a", "b", "c"), right)]
    settle = ohg.matroids._settle

    def wrong_witness(x, n, p):
        pair, witness = settle(x, n, p)
        return pair, wrong if witness == right else witness

    monkeypatch.setattr(ohg.matroids, "_settle", wrong_witness)
    with pytest.raises(RuntimeError,
                       match="dependency witness failed verification"):
        enumerate_circuits(g, domain)


def fields(dot, width, count):
    return [dot >> k * width & (1 << width) - 1 for k in range(count)]


# Per domain, a wrong witness per vertex row that breaks A.w = 0 in that
# row only, with no zero entry and inside the bound a right one keeps.
WRONG_IN_ONE_ROW = {"Q": ((2, 1, -1), (1, 2, -1)),
                    "GF(5)": ((3, 4, 1), (4, 3, 1))}


@pytest.mark.parametrize("row", (0, 1))
@pytest.mark.parametrize("domain", SMALL, ids=str)
def test_a_witness_wrong_in_one_row_is_refused(monkeypatch, domain, row):
    _, low, high, _ = _packed_columns(COLUMNS, 2, domain.char, 3)
    wrong = WRONG_IN_ONE_ROW[domain.label()][row]
    assert low <= min(wrong) and max(wrong) <= high
    p = domain.char
    products = [sum(map(mul, r, wrong)) for r in zip(*COLUMNS)]
    assert [bool(x % p if p else x) for x in products] \
        == [k == row for k in range(2)]
    refused(monkeypatch, domain, wrong)


def test_every_field_is_tested_modulo_p(monkeypatch):
    """A wrong witness whose packed product is a multiple of p, though
    its fields are not, is refused: the fields are tested one by one."""
    packed, _, _, width = _packed_columns(COLUMNS, 2, 5, 3)
    wrong = next(w for w in product(range(1, 5), repeat=3)
                 if sum(map(mul, packed, w)) % 5 == 0
                 and any(x % 5 for x in fields(sum(map(mul, packed, w)),
                                               width, 2)))
    refused(monkeypatch, Domain.prime_field(5), wrong)


@pytest.mark.parametrize("domain", SMALL, ids=str)
def test_a_witness_past_the_bound_is_refused(monkeypatch, domain):
    """A witness entry past what a right witness can hold is refused
    before the packed product, whose fields are only wide enough for
    witnesses inside the bound: these two wrong witnesses carry across
    fields so that the product reads as right."""
    packed, low, high, width = _packed_columns(COLUMNS, 2, domain.char, 3)
    if domain.is_rational:
        # A.w = (-2^(W+1), 2), which packs to zero.
        wrong = (1 - (1 << width), 2, -1)
        assert sum(map(mul, packed, wrong)) == 0
    else:
        # A.w = (2^W, 4): field 0 reads 0 and field 1 reads 4 + 1.
        wrong = ((1 << width - 1) - 1, 1, 1)
        assert fields(sum(map(mul, packed, wrong)), width, 3) == [0, 5, 0]
    assert not low <= min(wrong) <= max(wrong) <= high
    refused(monkeypatch, domain, wrong)
