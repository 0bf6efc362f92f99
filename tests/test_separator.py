"""Separating-automaton construction and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from regsep.automata import member
from regsep.backward import prestar_basis
from regsep.errors import NotDisjointError
from regsep.generators import random_net_pair
from regsep.ideals import OMEGA
from regsep.invariant import check_invariant, invariant_from_backward
from regsep.petri import (
    LabeledPetriNet,
    Transition,
    identity_labeled,
    label_expand,
    product,
)
from regsep.separator import (
    DEAD_STATE,
    build_core_automaton,
    net_digest,
    separate,
)
from regsep.verify import bounded_language, verify_separator

from .conftest import make_worked_pair
from .oracles import all_words, naive_language

W = OMEGA


class TestWorkedExample:
    def test_core_structure(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        core = bundle.core
        assert len(core.states) == 4
        ann = core.annotation_map()
        ideal_of = {ann[s]: s for s in ann}
        assert set(ideal_of) == {(0, 2), (1, 1), (W, 0)}
        s_init = ideal_of[(0, 2)]
        s_mid = ideal_of[(1, 1)]
        s_top = ideal_of[(W, 0)]
        assert core.initial == frozenset({s_init})
        assert core.final == frozenset({s_top, DEAD_STATE})
        (letter,) = core.alphabet
        assert set(core.transitions) == {
            (s_init, letter, s_mid),
            (s_mid, letter, s_top),
            (s_top, letter, DEAD_STATE),
            (DEAD_STATE, letter, DEAD_STATE),
        }

    def test_core_alphabet_is_second_net_transition_names(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        assert bundle.core.alphabet == tuple(t.name for t in n2.transitions)
        assert bundle.w == label_expand(n1, n2)
        assert bundle.w_det == identity_labeled(n2)

    def test_core_language_is_length_at_least_two(self):
        n1, n2 = make_worked_pair()
        core = separate(n1, n2).core
        for w in all_words(core.alphabet, 8):
            assert member(core, w) == (len(w) >= 2)

    def test_separator_language(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        for w in all_words(("a",), 8):
            assert member(bundle.separator, w) == (len(w) <= 1)

    def test_separator_verifies(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        assert verify_separator(n1, n2, bundle.separator).passed


class TestBuildCoreAutomaton:
    def test_rejects_non_injective_deterministic_side(self):
        n1, n2 = make_worked_pair()
        doubled = LabeledPetriNet(
            places=n2.places,
            alphabet=n2.alphabet,
            transitions=n2.transitions
            + (Transition("s_a2", "a", (1,), (0,)),),
            initial=n2.initial,
            final=n2.final,
        )
        prod = product(n1, n2)
        cert = invariant_from_backward(prod)
        with pytest.raises(ValueError):
            build_core_automaton(n1, doubled, cert)

    def test_rejects_failing_certificate(self):
        n1, n2 = make_worked_pair()
        other = LabeledPetriNet(
            places=("r",),
            alphabet=("a",),
            transitions=(Transition("u_a", "a", (1,), (1,)),),
            initial=(0,),
            final=(1,),
        )
        bad_cert = invariant_from_backward(product(n1, other))
        with pytest.raises(ValueError):
            build_core_automaton(n1, n2, bad_cert)

    def test_no_transitions_in_deterministic_side(self):
        n1 = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(Transition("t", "a", (0,), (1,)),),
            initial=(0,),
            final=(2,),
        )
        n2 = LabeledPetriNet(
            places=("q",), alphabet=("a",), transitions=(), initial=(0,), final=(1,)
        )
        bundle = separate(n1, n2)
        # the second language is empty, the first is not; the separator must
        # avoid everything the first net accepts
        assert not naive_language(n2, 4)
        for w in all_words(("a",), 6):
            if w in naive_language(n1, 6):
                assert not member(bundle.separator, w)

    def test_states_split_into_component_ideals(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        core = bundle.core
        n1_dim = 1  # the worked first net has a single place
        for _, u in core.annotations:
            left, right = u[:n1_dim], u[n1_dim:]
            assert len(left) + len(right) == len(core.annotation_places)


class TestSeparate:
    def test_refuses_overlapping_languages(self):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(Transition("t", "a", (0,), (1,)),),
            initial=(0,),
            final=(1,),
        )
        with pytest.raises(NotDisjointError):
            separate(net, net)

    def test_saturates_once(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return prestar_basis(net)

        for module in ("backward", "invariant", "separator"):
            monkeypatch.setattr(f"regsep.{module}.prestar_basis", counting)
        n1, n2 = make_worked_pair()
        separate(n1, n2)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(NotDisjointError):
            separate(n1, n1)
        assert len(calls) == 1

    def test_builds_product_once(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return product(a, b)

        for module in ("petri", "backward", "separator"):
            monkeypatch.setattr(f"regsep.{module}.product", counting)
        n1, n2 = make_worked_pair()
        separate(n1, n2)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(NotDisjointError):
            separate(n1, n1)
        assert len(calls) == 1

    def test_checks_invariant_once(self, monkeypatch):
        calls = []

        def counting(net, x):
            calls.append(net)
            return check_invariant(net, x)

        for module in ("invariant", "separator"):
            monkeypatch.setattr(f"regsep.{module}.check_invariant", counting)
        n1, n2 = make_worked_pair()
        separate(n1, n2)
        assert len(calls) == 1

    def test_separator_alphabet_is_joint_alphabet(self):
        for seed in (0, 2, 3, 5):
            pair = random_net_pair(seed)
            if not pair.disjoint:
                continue
            bundle = separate(pair.n1, pair.n2)
            assert set(bundle.separator.alphabet) == set(pair.n1.alphabet) | set(
                pair.n2.alphabet
            )

    def test_digests_identify_inputs(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        assert bundle.n1_digest == net_digest(n1)
        assert bundle.n2_digest == net_digest(n2)
        assert bundle.n1_digest != bundle.n2_digest

    def test_bundle_certificate_matches_pipeline(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        w_det = identity_labeled(n2)
        w = label_expand(n1, n2)
        expected = invariant_from_backward(product(w, w_det))
        assert bundle.certificate.down == expected.down
        assert bundle.basis == expected.source_basis

    def test_contains_second_language_on_corpus_sample(self):
        for seed in (0, 1, 2, 3, 5, 6):
            pair = random_net_pair(seed)
            if not pair.disjoint:
                continue
            bundle = separate(pair.n1, pair.n2)
            for w in bounded_language(pair.n2, 6):
                assert member(bundle.separator, w)
            for w in bounded_language(pair.n1, 6):
                assert not member(bundle.separator, w)
