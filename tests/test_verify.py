"""Exact separator verification and the bounded-word oracle."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsep.automata import Nfa, member
from regsep.config import Settings
from regsep.errors import BudgetExceededError, InputError, NotDisjointError
from regsep.generators import last_letter_pair
from regsep.ideals import IdealAntichain
from regsep.petri import LabeledPetriNet, Transition
from regsep.separator import separate
from regsep.verify import SeparatorReport, bounded_language, verify_separator

from .conftest import candidate_nfa, prefix_candidate_nfa
from .oracles import (
    forward_verify_separator,
    image_words,
    naive_language,
    naive_maximal,
    random_nfa,
)
from .test_cover import separation_pairs


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


def assert_same_verdicts(
    n1: LabeledPetriNet, n2: LabeledPetriNet, b: Nfa, languages: dict
) -> SeparatorReport:
    """`verify_separator` and the forward oracle agree on both verdicts, and
    every witness either finds is a word of its net on the wrong side of b;
    `languages` caches `naive_language` per (net, length)."""
    got = verify_separator(n1, n2, b)
    want = forward_verify_separator(n1, n2, b)
    assert (got.disjointness_ok, got.containment_ok) == (want.disjointness_ok, want.containment_ok)
    for report in (got, want):
        for word, net, in_b in (
            (report.disjointness_witness, n1, True),
            (report.containment_witness, n2, False),
        ):
            if word is not None:
                key = (net, len(word))
                if key not in languages:
                    languages[key] = naive_language(net, len(word))
                assert word in languages[key]
                assert member(b, word) == in_b
    return got


class TestAgainstForwardVerification:
    """The backward complement gives the verdicts of the candidate's minimal
    DFA; witness words may differ, so each is checked on its own."""

    def test_separation_pairs(self):
        # separators of the disjoint pairs (last-letter k=1..6 and the
        # `BOTH_NONEMPTY` corpus among them) and two random automata per
        # pair, each against the pair and the swapped pair
        rng = random.Random(16)
        languages: dict = {}
        verdicts = Counter()
        for _name, n1, n2 in separation_pairs():
            sigma = tuple(dict.fromkeys(n1.alphabet + n2.alphabet))
            candidates = [random_nfa(rng, rng.randint(2, 6), sigma) for _ in range(2)]
            try:
                candidates.append(separate(n1, n2).separator)
            except NotDisjointError:
                pass
            for b in candidates:
                for x, y in ((n1, n2), (n2, n1)):
                    report = assert_same_verdicts(x, y, b, languages)
                    verdicts[report.disjointness_ok, report.containment_ok] += 1
        assert verdicts == {
            (True, True): 656, (True, False): 317, (False, True): 218, (False, False): 151
        }

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_last_letter_candidates(self, k):
        # only the bit-1 candidate of the last-letter shape separates the pair
        n0, n1 = last_letter_pair(k)
        languages: dict = {}
        for shape in (candidate_nfa, prefix_candidate_nfa):
            passed = [assert_same_verdicts(n0, n1, shape(k, bit), languages).passed for bit in (0, 1)]
            assert passed == [False, shape is candidate_nfa]


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
