"""Backward coverability: predecessor bases, saturation, disjointness."""

from __future__ import annotations

import random
from itertools import groupby

import pytest

from regsep import automata, backward
from regsep.automata import determinize, minimize, net_automaton_intersection_witness
from regsep.backward import coverable, disjoint, pred_basis, prestar_basis, replay_chain, saturate
from regsep.config import Settings
from regsep.errors import BudgetExceededError, InputError
from regsep.generators import last_letter_pair, random_net_pair
from regsep.ideals import Antichain, UpSet, member_up
from regsep.petri import LabeledPetriNet, Transition, product
from regsep.separator import separate
from regsep.verify import verify_separator

from .conftest import make_worked_pair, universal_nfa
from .oracles import brute_pred_basis, forward_coverable, naive_language, random_nfa


def one_place_net(pre: int, post: int, m0: int, mf: int) -> LabeledPetriNet:
    return LabeledPetriNet(
        places=("p",),
        alphabet=("a",),
        transitions=(Transition("t", "a", (pre,), (post,)),),
        initial=(m0,),
        final=(mf,),
    )


class TestPredBasis:
    def test_producer(self):
        net = one_place_net(0, 1, 0, 2)
        assert pred_basis(net, (2,), "t") == (1,)
        assert brute_pred_basis(net, (2,), "t", 4) == (1,)

    def test_two_dimensional(self):
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a",),
            transitions=(Transition("t", "a", (0, 1), (1, 0)),),
            initial=(0, 0),
            final=(0, 0),
        )
        assert pred_basis(net, (2, 1), "t") == (1, 2)
        assert brute_pred_basis(net, (2, 1), "t", 5) == (1, 2)

    def test_enabledness_dominates(self):
        net = one_place_net(3, 0, 0, 0)
        assert pred_basis(net, (0,), "t") == (3,)

    def test_unknown_transition(self):
        net = one_place_net(0, 1, 0, 2)
        with pytest.raises(InputError):
            pred_basis(net, (2,), "missing")

    def test_matches_brute_force_randomly(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randint(1, 3)
            net = LabeledPetriNet(
                places=tuple(f"p{i}" for i in range(d)),
                alphabet=("a",),
                transitions=(
                    Transition(
                        "t",
                        "a",
                        tuple(rng.randint(0, 2) for _ in range(d)),
                        tuple(rng.randint(0, 2) for _ in range(d)),
                    ),
                ),
                initial=tuple(0 for _ in range(d)),
                final=tuple(0 for _ in range(d)),
            )
            v = tuple(rng.randint(0, 3) for _ in range(d))
            expected = brute_pred_basis(net, v, "t", 6)
            assert expected is not None
            assert pred_basis(net, v, "t") == expected


class TestPrestarBasis:
    def test_consumer_not_coverable(self):
        net = one_place_net(1, 0, 0, 2)
        result = prestar_basis(net)
        assert result.basis.basis == ((2,),)
        assert not result.coverable
        assert forward_coverable(net, cap=5) is False

    def test_producer_coverable(self):
        net = one_place_net(0, 1, 0, 2)
        result = prestar_basis(net)
        assert result.basis.basis == ((0,),)
        assert result.coverable
        assert forward_coverable(net, cap=5) is True

    def test_worked_product_basis(self):
        n1, n2 = make_worked_pair()
        result = prestar_basis(product(n1, n2))
        assert set(result.basis.basis) == {(2, 1), (1, 2), (0, 3)}
        assert not result.coverable

    def test_basis_soundness(self):
        # every basis element reaches a covering marking by forward firing
        for seed in range(25):
            n1, n2 = random_net_pair(seed)
            net = product(n1, n2)
            result = prestar_basis(net)
            for v in result.basis.basis:
                probe = LabeledPetriNet(
                    places=net.places,
                    alphabet=net.alphabet,
                    transitions=net.transitions,
                    initial=v,
                    final=net.final,
                )
                assert forward_coverable(probe, cap=15) is True

    def test_basis_minimality(self):
        for seed in range(25):
            n1, n2 = random_net_pair(seed)
            net = product(n1, n2)
            basis = prestar_basis(net).basis.basis
            for i, v in enumerate(basis):
                rest = UpSet(net.dimension, tuple(b for j, b in enumerate(basis) if j != i))
                # v itself leaves the set once removed
                assert not member_up(v, rest)


class TestBudget:
    def test_saturation_raises_past_node_budget(self):
        net = product(*last_letter_pair(3))
        back = {(None, t.label): (None,) for t in net.transitions}
        kept = len(saturate(net, (None,), back)[1])
        # exactly the nodes it keeps is enough; one fewer is not
        assert prestar_basis(net, Settings(node_budget=kept)).basis == prestar_basis(net).basis
        with pytest.raises(BudgetExceededError, match=r"\d+ iterations, antichain size \d+"):
            prestar_basis(net, Settings(node_budget=kept - 1))
        with pytest.raises(BudgetExceededError):
            separate(*last_letter_pair(3), settings=Settings(node_budget=50))

    def test_witness_search_raises_past_node_budget(self):
        n0, n1 = last_letter_pair(3)
        separator = separate(n0, n1).separator
        assert verify_separator(n0, n1, separator).passed
        with pytest.raises(BudgetExceededError):
            verify_separator(n0, n1, separator, Settings(node_budget=20))

    def test_witness_search_alone_raises_past_node_budget(self):
        # at small budgets verify_separator stops in its subset construction
        # first, so the search is run by itself on the minimal DFA here
        n0, n1 = last_letter_pair(3)
        dfa = minimize(determinize(separate(n0, n1).separator))
        assert net_automaton_intersection_witness(n0, dfa) is None
        with pytest.raises(BudgetExceededError, match="saturation kept over 20 nodes"):
            net_automaton_intersection_witness(n0, dfa, Settings(node_budget=20))


class TestCoverableDisjoint:
    def test_initial_covers_final(self):
        net = one_place_net(1, 0, 3, 2)
        assert coverable(net)

    def test_worked_pair_disjoint(self):
        n1, n2 = make_worked_pair()
        assert disjoint(n1, n2)
        joint = naive_language(n1, 8) & naive_language(n2, 8)
        assert not joint

    def test_self_not_disjoint(self):
        net = one_place_net(0, 1, 0, 2)
        assert not disjoint(net, net)

    def test_oracle_equivalence_small(self):
        checked = 0
        for seed in range(40):
            n1, n2 = random_net_pair(seed)
            for net in (n1, n2):
                expected = forward_coverable(net, cap=12)
                if expected is None:
                    continue
                checked += 1
                assert coverable(net) == expected
        assert checked >= 40


def coverability_witness(net: LabeledPetriNet):
    """A word of L(net), from the witness search against all words."""
    return net_automaton_intersection_witness(net, universal_nfa(net.alphabet))


class TestWitness:
    def test_witness_is_accepted_word(self):
        net = one_place_net(0, 1, 0, 2)
        word = coverability_witness(net)
        assert word == ("a", "a")
        assert word in naive_language(net, 4)

    def test_no_witness_when_uncoverable(self):
        net = one_place_net(1, 0, 0, 2)
        assert coverability_witness(net) is None

    def test_witness_replays_on_random_coverable_nets(self):
        found = 0
        for seed in range(60):
            n1, n2 = random_net_pair(seed)
            net = product(n1, n2)
            word = coverability_witness(net)
            assert (word is not None) == prestar_basis(net).coverable
            if word is None:
                continue
            found += 1
            # replay the witness letters as an actual accepted run
            assert word in naive_language(net, len(word))
        assert found >= 3

    def test_replay_rejects_chain_with_disabled_transition(self):
        # t needs a token the initial marking lacks
        net = one_place_net(1, 0, 0, 0)
        parents = {(1,): ("t", (0,)), (0,): None}
        with pytest.raises(RuntimeError, match="stay enabled"):
            replay_chain(net, parents, (1,))

    def test_replay_rejects_chain_not_covering_final(self):
        net = one_place_net(0, 0, 0, 1)
        parents = {("q", (0,)): ("t", ("r", (1,))), ("r", (1,)): None}
        with pytest.raises(RuntimeError, match="covering the final"):
            replay_chain(net, parents, ("q", (0,)))


def test_each_offer_reaches_the_antichain_once(monkeypatch):
    """Saturation answers a repeated (state, marking) offer from its own
    record, so no antichain is asked to add the same marking twice."""
    offers: list[tuple[int, tuple]] = []
    alive: list[Antichain] = []  # keeps ids unique within a run

    class CountingAntichain(Antichain):
        def __init__(self, *args):
            alive.append(self)
            super().__init__(*args)

        def add(self, m):
            offers.append((id(self), m))
            return super().add(m)

    monkeypatch.setattr(backward, "Antichain", CountingAntichain)
    # the forward cover prunes witness searches from their start, and a
    # last-letter candidate's verification offers too few markings, so the
    # second run is the verification of `test_each_predecessor_is_computed_once`
    n1, n2 = random_net_pair(31, places=4, transitions=5, norm=3)
    aut = random_nfa(random.Random(3), 12, n1.alphabet)
    runs = [
        lambda: prestar_basis(product(*last_letter_pair(3))).coverable,
        lambda: verify_separator(n1, n2, aut).passed,
    ]
    for run in runs:
        offers.clear()
        alive.clear()
        assert not run()
        assert len(offers) > 100
        assert len(set(offers)) == len(offers)


def test_each_predecessor_is_computed_once(monkeypatch):
    """A basis saturation expands each marking once, so no (marking, pre,
    post) triple is computed twice in it, even when two transitions share
    their pre and post vectors.  A witness search may expand a marking at
    several automaton states, and computes its predecessors again each
    time, but no triple twice within one expansion."""
    runs: list[list] = []  # the _pred calls of each saturation, None where an expansion starts
    pred, saturate, deque = backward._pred, backward.saturate, backward.deque

    def counting_pred(v, pre, post):
        runs[-1].append((v, pre, post))
        return pred(v, pre, post)

    def counting_saturate(*args):
        runs.append([])
        return saturate(*args)

    class Queue(deque):
        def popleft(self):
            runs[-1].append(None)
            return super().popleft()

    # the forward cover prunes the witness searches, so the nets and the
    # automaton are chosen for searches that still compute over 50
    # predecessors each (the last-letter k=5 bit-0 candidate leaves 31 and 54)
    n1, n2 = random_net_pair(31, places=4, transitions=5, norm=3)
    aut = random_nfa(random.Random(3), 12, n1.alphabet)
    monkeypatch.setattr(backward, "_pred", counting_pred)
    monkeypatch.setattr(backward, "saturate", counting_saturate)
    monkeypatch.setattr(backward, "deque", Queue)
    monkeypatch.setattr(automata, "saturate", counting_saturate)
    assert not prestar_basis(product(*last_letter_pair(3))).coverable
    assert not verify_separator(n1, n2, aut).passed
    assert len(runs) == 3
    basis_calls = [c for c in runs[0] if c is not None]
    assert len(basis_calls) > 50 and len(set(basis_calls)) == len(basis_calls)
    for calls in runs[1:]:
        expansions = [list(e) for starts, e in groupby(calls, lambda c: c is None) if not starts]
        assert sum(map(len, expansions)) > 50
        assert all(len(set(e)) == len(e) for e in expansions)
    # the first witness search expands some markings at several states
    first = [c for c in runs[1] if c is not None]
    assert (len(first), len(set(first))) == (281, 240)
