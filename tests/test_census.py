"""The census helpers: the refined canonical key against the brute-force one."""

from itertools import combinations

import pytest

from census import (
    connected_multigraphs,
    signed_subgraph_key,
    subset_connected,
    switching_patterns,
)
from oracles import oracle_signed_subgraph_key


def _assert_same_classes(max_edges: int) -> None:
    """Both keys split the connected signed edge subsets of every census
    instance into the same classes."""
    to_oracle, from_oracle = {}, {}
    for n, edges in connected_multigraphs(max_edges):
        for eps in switching_patterns(n, edges):
            for r in range(1, len(edges) + 1):
                for subset in combinations(range(len(edges)), r):
                    if not subset_connected(edges, subset):
                        continue
                    key = signed_subgraph_key(edges, eps, subset)
                    oracle = oracle_signed_subgraph_key(edges, eps, subset)
                    assert to_oracle.setdefault(key, oracle) == oracle
                    assert from_oracle.setdefault(oracle, key) == key


def test_refined_key_matches_brute_force_on_five_edges():
    _assert_same_classes(5)


@pytest.mark.slow
def test_refined_key_matches_brute_force_on_six_edges():
    _assert_same_classes(6)
