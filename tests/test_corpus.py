"""Harder differential corpora of random pairs with token norm three.

`SEEDS`: five places and three transitions per net; all 60 are disjoint.
`BOTH_NONEMPTY`: 22 disjoint pairs in four (places, transitions) regimes
where neither language is empty, so each separator must split words on
both sides."""

from __future__ import annotations

import pytest

from regsep.automata import member
from regsep.backward import prestar_basis
from regsep.generators import random_net_pair
from regsep.ideals import complement_upset
from regsep.petri import product
from regsep.separator import separate
from regsep.verify import bounded_language, verify_separator

from .oracles import fold_complement_upset, forward_coverable

SEEDS = range(60)
# the fold oracle grows exponentially with the basis: the 26 bases of at
# most 12 vectors take about 2 s, and all 60 (up to 60 vectors) did not
# finish in 15 minutes (Python 3.11.7, 2 vCPUs)
FOLD_CAP = 12
# (places, transitions) -> seeds
BOTH_NONEMPTY = {
    (5, 4): (26, 43, 58, 69, 87, 89, 127, 195),
    (4, 5): (28, 35, 70, 110, 152, 169, 172),
    (5, 3): (12, 37, 172, 181),
    (5, 5): (79, 153, 159),
}


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in SEEDS:
        pair = random_net_pair(seed, places=5, transitions=3, norm=3)
        prod = product(pair.n1, pair.n2)
        out.append((pair, prod, prestar_basis(prod)))
    return out


def test_backward_agrees_with_forward_search(corpus):
    for pair, prod, backward in corpus:
        assert pair.disjoint
        assert forward_coverable(prod) is False
        assert backward.coverable is False


def test_complement_agrees_with_fold(corpus):
    compared = 0
    for _pair, _prod, backward in corpus:
        if len(backward.basis.basis) <= FOLD_CAP:
            assert complement_upset(backward.basis) == fold_complement_upset(backward.basis)
            compared += 1
    assert compared == 26


def test_separators_verify_and_split_bounded_languages(corpus):
    words = 0
    for pair, _prod, _backward in corpus:
        bundle = separate(pair.n1, pair.n2)
        assert verify_separator(pair.n1, pair.n2, bundle.separator).passed
        inside = bounded_language(pair.n2, 5)
        outside = bounded_language(pair.n1, 5)
        assert all(member(bundle.separator, w) for w in inside)
        assert not any(member(bundle.separator, w) for w in outside)
        words += len(inside) + len(outside)
    assert words == 95


@pytest.fixture(scope="module")
def both_nonempty():
    out = []
    for (places, transitions), seeds in BOTH_NONEMPTY.items():
        for seed in seeds:
            pair = random_net_pair(seed, places=places, transitions=transitions, norm=3)
            prod = product(pair.n1, pair.n2)
            out.append((pair, prod, prestar_basis(prod)))
    return out


def test_both_nonempty_selection(both_nonempty):
    # the filter the seeds were picked by: disjoint, each net accepts a word
    assert len(both_nonempty) == 22
    for pair, prod, backward in both_nonempty:
        assert pair.disjoint
        assert forward_coverable(prod) is False
        assert backward.coverable is False
        assert forward_coverable(pair.n1) is True
        assert forward_coverable(pair.n2) is True
        assert bounded_language(pair.n1, 5) and bounded_language(pair.n2, 5)


def test_both_nonempty_complement_agrees_with_fold(both_nonempty):
    compared = 0
    for _pair, _prod, backward in both_nonempty:
        if len(backward.basis.basis) <= FOLD_CAP:
            assert complement_upset(backward.basis) == fold_complement_upset(backward.basis)
            compared += 1
    assert compared == 5


def test_both_nonempty_separators_split_both_languages(both_nonempty):
    words = 0
    for pair, _prod, _backward in both_nonempty:
        bundle = separate(pair.n1, pair.n2)
        assert 1 <= len(bundle.complement_dfa.states) <= 17
        assert verify_separator(pair.n1, pair.n2, bundle.separator).passed
        inside = bounded_language(pair.n2, 5)
        outside = bounded_language(pair.n1, 5)
        assert all(member(bundle.separator, w) for w in inside)
        assert not any(member(bundle.separator, w) for w in outside)
        words += len(inside) + len(outside)
    assert words == 402
