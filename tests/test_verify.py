"""Exact separator verification and the bounded-word oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsep.automata import Nfa
from regsep.config import Settings
from regsep.errors import BudgetExceededError, InputError
from regsep.ideals import IdealAntichain
from regsep.petri import LabeledPetriNet, Transition
from regsep.separator import separate
from regsep.verify import bounded_language, verify_separator

from .oracles import image_words, naive_language, naive_maximal


def universal(alphabet: tuple[str, ...]) -> Nfa:
    return Nfa(
        states=("u",),
        alphabet=alphabet,
        transitions=tuple(("u", x, "u") for x in alphabet),
        initial=frozenset({"u"}),
        final=frozenset({"u"}),
    )


def empty_language(alphabet: tuple[str, ...]) -> Nfa:
    return Nfa(
        states=("u",),
        alphabet=alphabet,
        transitions=tuple(("u", x, "u") for x in alphabet),
        initial=frozenset({"u"}),
        final=frozenset(),
    )


class TestVerifySeparator:
    def test_produced_separator_passes(self, worked_pair):
        n1, n2 = worked_pair
        bundle = separate(n1, n2)
        report = verify_separator(n1, n2, bundle.separator)
        assert report.passed
        assert report.disjointness_witness is None
        assert report.containment_witness is None

    def test_empty_automaton_fails_containment_with_witness(self, worked_pair):
        n1, n2 = worked_pair
        report = verify_separator(n1, n2, empty_language(("a",)))
        assert report.disjointness_ok
        assert not report.containment_ok
        # the witness is accepted by n2 but rejected by the automaton
        assert report.containment_witness in naive_language(n2, 4)

    def test_universal_automaton_fails_disjointness_with_witness(self, worked_pair):
        n1, n2 = worked_pair
        report = verify_separator(n1, n2, universal(("a",)))
        assert not report.disjointness_ok
        w = report.disjointness_witness
        assert w is not None and w in naive_language(n1, len(w))

    def test_alphabet_mismatch_rejected(self, worked_pair):
        n1, n2 = worked_pair
        with pytest.raises(InputError):
            verify_separator(n1, n2, universal(("a", "b")))


class TestBoundedLanguage:
    def test_worked_first_net(self, worked_pair):
        n1, _ = worked_pair
        words = bounded_language(n1, 4)
        assert set(words) == {("a", "a"), ("a", "a", "a"), ("a", "a", "a", "a")}

    def test_epsilon_when_initial_covers_final(self):
        net = LabeledPetriNet(
            places=("p",), alphabet=("a",), transitions=(), initial=(2,), final=(1,)
        )
        assert () in bounded_language(net, 2)

    def test_empty_when_unreachable_and_no_transitions(self):
        net = LabeledPetriNet(
            places=("p",), alphabet=("a",), transitions=(), initial=(0,), final=(1,)
        )
        assert bounded_language(net, 3) == ()

    def test_deterministic_order(self, worked_pair):
        n1, _ = worked_pair
        words = bounded_language(n1, 5)
        assert list(words) == sorted(words, key=lambda w: (len(w), w))

    def test_maxlen_cap_enforced(self, worked_pair):
        n1, _ = worked_pair
        with pytest.raises(InputError):
            bounded_language(n1, 11)

    def test_negative_maxlen_rejected(self, worked_pair):
        n1, _ = worked_pair
        with pytest.raises(InputError, match="negative"):
            bounded_language(n1, -3)

    def test_node_budget_overflow_is_loud(self):
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a", "b"),
            transitions=(
                Transition("t1", "a", (0, 0), (1, 0)),
                Transition("t2", "b", (0, 0), (0, 1)),
            ),
            initial=(0, 0),
            final=(5, 5),
        )
        tight = Settings(sample_maxlen_cap=10, node_budget=10)
        with pytest.raises(BudgetExceededError):
            bounded_language(net, 8, tight)

    def test_node_budget_overflow_reports_progress(self):
        # every word over {a, b} is a distinct frontier entry: 1 + 2 + 4 nodes
        # fit in 10, and the 8 words of length 3 do not
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a", "b"),
            transitions=(
                Transition("t1", "a", (0, 0), (1, 0)),
                Transition("t2", "b", (0, 0), (0, 1)),
            ),
            initial=(0, 0),
            final=(5, 5),
        )
        tight = Settings(sample_maxlen_cap=10, node_budget=10)
        with pytest.raises(
            BudgetExceededError,
            match="exceeded 10 nodes at word length 3, 8 words in the frontier",
        ):
            bounded_language(net, 8, tight)

    def test_matches_naive_enumeration_with_pruning(self):
        # maximal-marking pruning must not change the accepted word set
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a", "b"),
            transitions=(
                Transition("t1", "a", (0, 1), (2, 0)),
                Transition("t2", "a", (0, 0), (0, 1)),
                Transition("t3", "b", (1, 0), (0, 0)),
            ),
            initial=(0, 2),
            final=(3, 0),
        )
        assert set(bounded_language(net, 6)) == naive_language(net, 6)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*([st.integers(0, 3)] * 3)), max_size=25))
    def test_pruning_keeps_the_maximal_markings_first_seen_first(self, markings):
        # the filter applied to the markings each word reaches
        assert list(IdealAntichain(markings)) == naive_maximal(markings)


class TestImageWords:
    def test_homomorphism(self):
        words = (("t1",), ("t1", "t2"))
        assert image_words(words, {"t1": "a", "t2": "a"}) == (("a",), ("a", "a"))

    def test_deduplicates(self):
        words = (("t1",), ("t2",))
        assert image_words(words, {"t1": "a", "t2": "a"}) == (("a",),)
