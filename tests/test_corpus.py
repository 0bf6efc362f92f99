"""Harder differential corpora of random pairs.

`SEEDS`: five places, three transitions and token norm three per net; all
60 are disjoint.
`BOTH_NONEMPTY`: 22 disjoint pairs of norm three in four (places,
transitions) regimes where neither language is empty, so each separator
must split words on both sides.
`LIVE`: 24 disjoint pairs in five (places, transitions, norm) regimes whose
separator product is live: its complete forward cover holds at least 6
ideals, so joint steps fire and the invariant, the core and the separator
are not trivial."""

from __future__ import annotations

import pytest

from regsep.automata import determinize, member
from regsep.backward import disjoint, prestar_basis
from regsep.config import Settings
from regsep.errors import BudgetExceededError
from regsep.generators import random_net_pair
from regsep.ideals import DownSet, complement_upset
from regsep.invariant import check_invariant, invariant_from_backward
from regsep.petri import identity_labeled, label_expand, product
from regsep.separator import build_core_automaton, separate
from regsep.verify import bounded_language, verify_separator

from .conftest import complete_cover
from .oracles import (
    fire_and_scan_core_automaton,
    fold_complement_upset,
    forward_coverable,
    naive_member_down,
    scan_check_invariant,
)

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
# (places, transitions, norm) -> seeds, drawn by rejection from seeds 0-299
LIVE = {
    (4, 6, 2): (27, 56, 185, 204, 267, 271),
    (3, 6, 3): (112, 125, 166, 171, 181, 210, 264, 274),
    (4, 8, 2): (22, 51, 131, 185, 256, 261),
    (3, 5, 2): (147, 220, 221),
    (5, 6, 2): (113,),
}
# its 1,056-state core determinizes to 188,282 subsets (36 s), so `separate`
# takes 50-63 s (Python 3.11.7, 2 vCPUs); it stays out of the separator test
BLOWN_UP = ((3, 6, 3), 166)


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in SEEDS:
        n1, n2 = random_net_pair(seed, places=5, transitions=3, norm=3)
        prod = product(n1, n2)
        out.append(((n1, n2), prod, prestar_basis(prod)))
    return out


def test_backward_agrees_with_forward_search(corpus):
    for (n1, n2), prod, backward in corpus:
        assert disjoint(n1, n2)
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
    for (n1, n2), _prod, _backward in corpus:
        bundle = separate(n1, n2)
        assert verify_separator(n1, n2, bundle.separator).passed
        inside = bounded_language(n2, 5)
        outside = bounded_language(n1, 5)
        assert all(member(bundle.separator, w) for w in inside)
        assert not any(member(bundle.separator, w) for w in outside)
        words += len(inside) + len(outside)
    assert words == 95


@pytest.fixture(scope="module")
def both_nonempty():
    out = []
    for (places, transitions), seeds in BOTH_NONEMPTY.items():
        for seed in seeds:
            n1, n2 = random_net_pair(seed, places=places, transitions=transitions, norm=3)
            prod = product(n1, n2)
            out.append(((n1, n2), prod, prestar_basis(prod)))
    return out


def test_both_nonempty_selection(both_nonempty):
    # the filter the seeds were picked by: disjoint, each net accepts a word
    assert len(both_nonempty) == 22
    for (n1, n2), prod, backward in both_nonempty:
        assert disjoint(n1, n2)
        assert forward_coverable(prod) is False
        assert backward.coverable is False
        assert forward_coverable(n1) is True
        assert forward_coverable(n2) is True
        assert bounded_language(n1, 5) and bounded_language(n2, 5)


def test_both_nonempty_complement_agrees_with_fold(both_nonempty):
    compared = 0
    for _pair, _prod, backward in both_nonempty:
        if len(backward.basis.basis) <= FOLD_CAP:
            assert complement_upset(backward.basis) == fold_complement_upset(backward.basis)
            compared += 1
    assert compared == 5


def test_both_nonempty_separators_split_both_languages(both_nonempty):
    words = 0
    for (n1, n2), _prod, _backward in both_nonempty:
        bundle = separate(n1, n2)
        assert 1 <= len(bundle.complement_dfa.states) <= 17
        assert verify_separator(n1, n2, bundle.separator).passed
        inside = bounded_language(n2, 5)
        outside = bounded_language(n1, 5)
        assert all(member(bundle.separator, w) for w in inside)
        assert not any(member(bundle.separator, w) for w in outside)
        words += len(inside) + len(outside)
    assert words == 402


@pytest.fixture(scope="module")
def live():
    """(regime, seed, n1, n2, w, w_det, product, certificate, core) per pair,
    where the product is `separate`'s product(w, w_det)."""
    out = []
    for regime, seeds in LIVE.items():
        for seed in seeds:
            n1, n2 = random_net_pair(seed, *regime)
            w, w_det = label_expand(n1, n2), identity_labeled(n2)
            prod = product(w, w_det)
            cert = invariant_from_backward(prod, prestar_basis(prod))
            core = build_core_automaton(w, w_det, cert, prod)
            out.append((regime, seed, n1, n2, w, w_det, prod, cert, core))
    return out


def test_live_selection(live):
    # the filter the seeds were picked by: disjoint, with a live product
    assert len(live) == 24
    for regime, seed, n1, n2, _w, _w_det, prod, _cert, _core in live:
        assert disjoint(n1, n2), (regime, seed)
        assert len(complete_cover(prod)) >= 6, (regime, seed)


def test_live_check_invariant_against_scan(live):
    for regime, seed, _n1, _n2, _w, _w_det, prod, cert, _core in live:
        report = check_invariant(prod, cert.down)
        *verdicts, successors = scan_check_invariant(prod, cert.down)
        assert [report.initial_ok, report.final_ok, report.closed_ok] == verdicts, (regime, seed)
        assert list(report.successors.items()) == list(successors.items()), (regime, seed)


def test_live_core_against_fire_and_scan(live):
    for regime, seed, _n1, _n2, w, w_det, prod, cert, core in live:
        assert core == fire_and_scan_core_automaton(w, w_det, cert, prod), (regime, seed)


def test_live_cover_is_an_invariant(live):
    # the complete cover passes the invariant check and lies below the
    # greatest invariant, the complement of the backward basis
    for regime, seed, _n1, _n2, _w, _w_det, prod, cert, _core in live:
        cover = DownSet(prod.dimension, tuple(sorted(complete_cover(prod))))
        assert check_invariant(prod, cover).passed, (regime, seed)
        assert all(naive_member_down(u, cert.down.ideals) for u in cover.ideals), (regime, seed)


def test_live_separators_verify_and_split_bounded_languages(live):
    separated = 0
    for regime, seed, n1, n2, *_ in live:
        if (regime, seed) == BLOWN_UP:
            continue
        bundle = separate(n1, n2)
        assert verify_separator(n1, n2, bundle.separator).passed, (regime, seed)
        assert all(member(bundle.separator, w) for w in bounded_language(n2, 6)), (regime, seed)
        assert not any(member(bundle.separator, w) for w in bounded_language(n1, 6)), (regime, seed)
        separated += 1
    assert separated == 23


def test_blown_up_core_runs_out_of_subsets(live):
    # pins the blow-up that keeps BLOWN_UP out of the separator test
    [core] = [core for regime, seed, *_, core in live if (regime, seed) == BLOWN_UP]
    assert len(core.states) == 1056
    with pytest.raises(BudgetExceededError, match="subset construction exceeded 2000 subsets"):
        determinize(core, Settings(node_budget=2000))
