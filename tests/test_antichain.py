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
from regsep.ideals import Antichain, DownSet, UpSet, complement_upset
from regsep.petri import identity_labeled, label_expand, product

from .oracles import (
    list_intersection_saturation,
    list_intersection_witness,
    list_prestar_basis,
    random_nfa,
)


def leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def brute_minimal(vectors):
    distinct = set(vectors)
    return {v for v in distinct if not any(w != v and leq(w, v) for w in distinct)}


@st.composite
def marking_lists(draw):
    d = draw(st.integers(min_value=0, max_value=5))
    return draw(st.lists(st.tuples(*([st.integers(0, 3)] * d)), max_size=25))


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


def candidate_nfa(k: int, bit: int) -> Nfa:
    """NFA for c{0,1}*<bit>{0,1}^(k-1)c over the last-letter alphabet."""
    states = ("s0", "s1") + tuple(f"q{i}" for i in range(1, k + 1)) + ("f",)
    edges = [("s0", "c", "s1"), ("s1", "0", "s1"), ("s1", "1", "s1"), ("s1", str(bit), "q1")]
    for i in range(1, k):
        edges += [(f"q{i}", "0", f"q{i + 1}"), (f"q{i}", "1", f"q{i + 1}")]
    edges.append((f"q{k}", "c", "f"))
    return Nfa(
        states=states,
        alphabet=LAST_LETTER_ALPHABET,
        transitions=tuple(edges),
        initial=frozenset({"s0"}),
        final=frozenset({"f"}),
    )


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
        pair = random_net_pair(seed, places=3 + seed % 3, norm=1 + seed // 3 % 3)
        yield product(pair.n1, pair.n2)
        yield product(label_expand(pair.n1, pair.n2), identity_labeled(pair.n2))


def assert_same_backward(net, check_complement=True):
    got, want = prestar_basis(net), list_prestar_basis(net)
    assert got.basis == want.basis
    assert got.iterations == want.iterations
    assert got.coverable == want.coverable
    assert list(got.parents.items()) == list(want.parents.items())
    # the trusted results equal what the validating constructors build; the
    # complement is taken where `separate` takes it, on uncoverable products
    assert UpSet(net.dimension, got.basis.basis) == got.basis
    if check_complement and not got.coverable:
        down = complement_upset(got.basis)
        assert DownSet(net.dimension, down.ideals) == down
    return got


class TestEngineAgainstListLoops:
    def test_random_products(self):
        # complements of the 10-place bases take seconds each (up to 681
        # ideals), so the trusted complement is checked up to 8 places
        coverable = [
            assert_same_backward(net, net.dimension <= 8).coverable for net in random_products()
        ]
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
                chains, parents, _ = saturate(net, sorted(aut.final), _back(aut))
                want_basis, want_parents = list_intersection_saturation(net, aut)
                assert {q: list(c) for q, c in chains.items() if c} == {
                    q: b for q, b in want_basis.items() if b
                }
                assert list(parents.items()) == list(want_parents.items())
                word = net_automaton_intersection_witness(net, aut)
                assert word == list_intersection_witness(net, aut, (want_basis, want_parents))
                words.append(word)
        # the bit-1 candidate is exact; the bit-0 one meets n0 and misses n1
        zeros, ones = ("0",) * k, ("1",) * k
        assert words == [("c", *zeros, "c"), ("c", *ones, "c"), None, None]

    def test_random_automata(self):
        rng = random.Random(7)
        found = 0
        for seed in range(200):
            net = random_net_pair(seed).n1
            a = random_nfa(rng, rng.randint(2, 5), net.alphabet)
            word = net_automaton_intersection_witness(net, a)
            assert word == list_intersection_witness(net, a)
            found += word is not None
        assert 0 < found < 200

