"""The support-indexed antichain and the saturation engine built on it.

The engine is compared exactly against the original list-based loops kept
in `oracles.py`: bases, iteration counts, verdicts, parents maps (with key
order) and witness words.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsep.automata import Nfa, complement, determinize, minimize, net_automaton_intersection_witness
from regsep.backward import prestar_basis, saturate
from regsep.generators import LAST_LETTER_ALPHABET, last_letter_net, last_letter_pair, random_net_pair
from regsep.ideals import OMEGA, Antichain, DownSet, IdealAntichain, UpSet, complement_upset
from regsep.petri import identity_labeled, label_expand, product

from .conftest import candidate_nfa
from .oracles import (
    list_intersection_saturation,
    list_intersection_witness,
    list_prestar_basis,
    random_nfa,
    scan_containing,
)


def leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def omega_leq_naive(a, b):
    return all(y == OMEGA or (x != OMEGA and x <= y) for x, y in zip(a, b))


def brute_minimal(vectors):
    distinct = set(vectors)
    return {v for v in distinct if not any(w != v and leq(w, v) for w in distinct)}


def brute_maximal(ideals):
    distinct = set(ideals)
    return {
        u for u in distinct if not any(w != u and omega_leq_naive(u, w) for w in distinct)
    }


@st.composite
def marking_lists(draw):
    d = draw(st.integers(min_value=0, max_value=5))
    return draw(st.lists(st.tuples(*([st.integers(0, 3)] * d)), max_size=25))


@st.composite
def omega_lists(draw):
    d = draw(st.integers(min_value=0, max_value=5))
    coord = st.one_of(st.integers(0, 3), st.just(OMEGA))
    return draw(st.lists(st.tuples(*([coord] * d)), min_size=1, max_size=25))


def assert_buckets_consistent(chain):
    # every element sits in the one bucket named by its key, and no bucket is empty
    assert all(chain._buckets.values())
    assert sorted(m for bucket in chain._buckets.values() for m in bucket) == sorted(chain)
    for key, bucket in chain._buckets.items():
        assert all(chain[m] == key == chain._mask(m) for m in bucket)


class TestAntichain:
    @settings(max_examples=200, deadline=None)
    @given(marking_lists())
    def test_minimal_elements_in_insertion_order(self, vectors):
        chain = Antichain()
        inserted = []
        for m in vectors:
            dominated = any(leq(b, m) for b in chain)
            assert chain.add(m) is not dominated
            if not dominated:
                inserted.append(m)
        assert set(chain) == brute_minimal(vectors)
        assert list(chain) == [m for m in inserted if m in chain]
        assert len(chain) == len(set(chain))
        assert not any(a != b and leq(a, b) for a in chain for b in chain)

    @settings(max_examples=100, deadline=None)
    @given(marking_lists(), st.randoms(use_true_random=False))
    def test_independent_of_insertion_order(self, vectors, rng):
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        first, second = Antichain(), Antichain()
        for m in vectors:
            first.add(m)
        for m in shuffled:
            second.add(m)
        assert set(first) == set(second)

    def test_membership_is_current_elements(self):
        chain = Antichain()
        assert chain.add((2, 1))
        assert (2, 1) in chain
        assert not chain.add((2, 1))
        assert chain.add((1, 1))  # evicts (2, 1)
        assert (2, 1) not in chain and list(chain) == [(1, 1)]

    def test_more_places_than_support_bits(self):
        # coordinates past the 64th carry no support bit; the order check
        # must still decide
        def vec(**kw):
            return tuple(kw.get(f"p{i}", 0) for i in range(70))

        vectors = [vec(p68=2), vec(p68=1, p3=1), vec(p69=1), vec(p68=1), vec(p3=1, p69=1)]
        chain = Antichain()
        for m in vectors:
            chain.add(m)
        assert set(chain) == brute_minimal(vectors) == {vec(p68=1), vec(p69=1)}


class TestIdealAntichain:
    """The same engine under the reverse order, keeping maximal ideals."""

    @settings(max_examples=200, deadline=None)
    @given(omega_lists())
    def test_maximal_ideals_in_insertion_order(self, ideals):
        chain = IdealAntichain()
        inserted = []
        for u in ideals:
            contained = any(omega_leq_naive(u, r) for r in chain)
            assert chain.add(u) is not contained
            if not contained:
                inserted.append(u)
        assert set(chain) == brute_maximal(ideals)
        assert list(chain) == [u for u in inserted if u in chain]
        assert not any(a != b and omega_leq_naive(a, b) for a in chain for b in chain)
        assert_buckets_consistent(chain)

    @settings(max_examples=100, deadline=None)
    @given(omega_lists(), st.randoms(use_true_random=False))
    def test_independent_of_insertion_order(self, ideals, rng):
        shuffled = list(ideals)
        rng.shuffle(shuffled)
        assert set(IdealAntichain(ideals)) == set(IdealAntichain(shuffled))

    @settings(max_examples=100, deadline=None)
    @given(omega_lists(), st.randoms(use_true_random=False))
    def test_drop_keeps_buckets_consistent(self, ideals, rng):
        chain = IdealAntichain(ideals)
        kept = list(chain)
        for u in rng.sample(kept, rng.randint(0, len(kept))):
            chain.drop(u)
            kept.remove(u)
            assert list(chain) == kept
            assert_buckets_consistent(chain)
        # the scans and insertions afterwards see exactly what is left
        for u in ideals:
            assert scan_containing(list(chain), u) == [r for r in kept if omega_leq_naive(u, r)]
        for u in ideals:
            chain.add(u)
        assert set(chain) == brute_maximal(kept + ideals)
        assert_buckets_consistent(chain)

    def test_more_places_than_bucket_bits(self):
        # coordinates past the 64th carry no bucket bit; the order check
        # must still decide
        def vec(**kw):
            return tuple(kw.get(f"p{i}", OMEGA) for i in range(70))

        ideals = [vec(p68=0), vec(p68=1, p3=1), vec(p69=1), vec(p68=1), vec(p3=1, p69=1)]
        chain = IdealAntichain(ideals)
        assert set(chain) == brute_maximal(ideals) == {vec(p68=1), vec(p69=1)}
        assert list(chain) == [vec(p69=1), vec(p68=1)]
        assert scan_containing(list(chain), vec(p3=0, p68=1, p69=1)) == list(chain)
        assert scan_containing(list(chain), vec(p68=2)) == []
        chain.drop(vec(p69=1))
        assert list(chain) == [vec(p68=1)]
        assert_buckets_consistent(chain)


def _back(a: Nfa) -> dict:
    """(state, letter) -> the states with an edge on that letter into it."""
    back: dict = {}
    for s, letter, r in a.transitions:
        back.setdefault((r, letter), []).append(s)
    return back


def random_products():
    """Direct and label-expanded products of 120 seeded random pairs with
    3-5 places and norm 1-3."""
    for seed in range(120):
        n1, n2 = random_net_pair(seed, places=3 + seed % 3, norm=1 + seed // 3 % 3)
        yield product(n1, n2)
        yield product(label_expand(n1, n2), identity_labeled(n2))


def assert_same_backward(net):
    got, (want, want_parents) = prestar_basis(net), list_prestar_basis(net)
    assert got.basis == want.basis
    assert got.iterations == want.iterations
    assert got.coverable == want.coverable
    # the one-state saturation that `prestar_basis` runs, its nodes keyed
    # by marking alone
    _, parents, _ = saturate(net, (None,), {(None, t.label): (None,) for t in net.transitions})
    keyed = {m: None if p is None else (p[0], p[1][1]) for (_, m), p in parents.items()}
    assert list(keyed.items()) == list(want_parents.items())
    # the results equal what the validating constructors rebuild; the
    # complement is taken where `separate` takes it, on uncoverable products
    assert UpSet(net.dimension, got.basis.basis) == got.basis
    if not got.coverable:
        down = complement_upset(got.basis)
        assert DownSet(net.dimension, down.ideals) == down
    return got


def assert_same_saturation(net, aut: Nfa):
    """`saturate` on net x aut equals the list oracle: per-state antichains
    in element order, the parents map in key order and the number of nodes
    expanded.  Returns the oracle's result."""
    chains, parents, iterations = saturate(net, sorted(aut.final), _back(aut))
    want = want_basis, want_parents, want_iterations = list_intersection_saturation(net, aut)
    assert {q: list(c) for q, c in chains.items() if c} == {
        q: b for q, b in want_basis.items() if b
    }
    assert list(parents.items()) == list(want_parents.items())
    assert iterations == want_iterations
    return want


class TestEngineAgainstListLoops:
    def test_random_products(self):
        coverable = [assert_same_backward(net).coverable for net in random_products()]
        assert len(coverable) == 240 and 0 < sum(coverable) < 240

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_last_letter_products(self, k):
        """The disjoint pair's product and the product `separate(n, n)` refuses."""
        n = last_letter_net(0, k)
        assert not assert_same_backward(product(*last_letter_pair(k))).coverable
        assert assert_same_backward(product(label_expand(n, n), identity_labeled(n))).coverable

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_verification_of_last_letter_candidates(self, k):
        n0, n1 = last_letter_pair(k)
        words = []
        for bit in (0, 1):
            dfa = minimize(determinize(candidate_nfa(k, bit)))
            for net, aut in ((n0, dfa), (n1, complement(dfa))):
                want = assert_same_saturation(net, aut)
                word = net_automaton_intersection_witness(net, aut)
                assert word == list_intersection_witness(net, aut, want)
                words.append(word)
        # the bit-1 candidate is exact; the bit-0 one meets n0 and misses n1
        zeros, ones = ("0",) * k, ("1",) * k
        assert words == [("c", *zeros, "c"), ("c", *ones, "c"), None, None]

    def test_states_and_transitions_without_moves(self):
        """Empty and partial move lists: in the first automaton "i" has no
        incoming edge and "y" only one on "b", which labels no transition;
        in the second no edge carries the label "1" of three transitions."""
        net = last_letter_net(0, 3)

        def nfa(*edges):
            return Nfa(("i", "a", "y", "f"), LAST_LETTER_ALPHABET, edges, frozenset("i"), frozenset("f"))

        no_incoming = nfa(
            ("i", "c", "a"), ("a", "0", "a"), ("a", "1", "a"), ("a", "b", "y"),
            ("a", "c", "f"), ("y", "c", "f"),
        )
        no_edge_on_1 = nfa(("i", "c", "a"), ("a", "0", "a"), ("a", "c", "f"), ("y", "0", "a"))
        for aut in (no_incoming, no_edge_on_1):
            _, parents, _ = assert_same_saturation(net, aut)
            assert {q for q, _ in parents} == {"i", "a", "y", "f"}  # nodes kept where no move leads on

    def test_random_automata(self):
        rng = random.Random(7)
        found = 0
        for seed in range(200):
            net = random_net_pair(seed)[0]
            a = random_nfa(rng, rng.randint(2, 5), net.alphabet)
            word = net_automaton_intersection_witness(net, a)
            assert word == list_intersection_witness(net, a)
            found += word is not None
        assert 0 < found < 200

    def test_random_automata_full_saturation(self):
        """The pairs of `test_random_automata`, compared on the whole
        saturation: per-state antichains in element order, the parents map
        in key order, and the number of nodes expanded."""
        rng = random.Random(7)
        multi_target = 0
        for seed in range(200):
            net = random_net_pair(seed)[0]
            a = random_nfa(rng, rng.randint(2, 5), net.alphabet)
            multi_target += any(len(sources) > 1 for sources in _back(a).values())
            assert_same_saturation(net, a)
        assert multi_target > 100
