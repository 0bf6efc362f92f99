"""Separating-automaton construction and the end-to-end pipeline."""

from __future__ import annotations

import json

import pytest

from regsep import backward
from regsep.automata import complement, determinize, member, minimize, relabel, widen_alphabet
from regsep.backward import disjoint, prestar_basis, saturate
from regsep.cli import main, net_digest
from regsep.errors import NotDisjointError
from regsep.fileio import save_net
from regsep.generators import last_letter_pair, random_net_pair
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
    separate,
)
from regsep.verify import bounded_language, verify_separator

from .conftest import make_worked_pair
from .oracles import all_words, fire_and_scan_core_automaton, naive_language

W = OMEGA


class TestWorkedExample:
    def test_core_structure(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        core = bundle.core
        assert len(core.states) == 4
        ann = dict(core.annotations)
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
        cert = invariant_from_backward(prod, prestar_basis(prod))
        with pytest.raises(ValueError):
            build_core_automaton(n1, doubled, cert, prod)

    def test_rejects_failing_certificate(self):
        n1, n2 = make_worked_pair()
        other = LabeledPetriNet(
            places=("r",),
            alphabet=("a",),
            transitions=(Transition("u_a", "a", (1,), (1,)),),
            initial=(0,),
            final=(1,),
        )
        other_prod = product(n1, other)
        bad_cert = invariant_from_backward(other_prod, prestar_basis(other_prod))
        with pytest.raises(ValueError):
            build_core_automaton(n1, n2, bad_cert, product(n1, n2))

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


class TestCoreAgainstFireAndScan:
    """The core automaton equals the original fire-and-scan construction."""

    @staticmethod
    def assert_same_core(bundle):
        expected = fire_and_scan_core_automaton(bundle.w, bundle.w_det, bundle.certificate)
        assert bundle.core == expected

    def test_worked_pair(self):
        self.assert_same_core(separate(*make_worked_pair()))

    def test_disjoint_corpus(self, disjoint_corpus):
        for _seed, _n1, _n2, bundle in disjoint_corpus:
            self.assert_same_core(bundle)

    def test_random_pairs(self):
        compared = 0
        for seed in range(100):
            n1, n2 = random_net_pair(seed)
            if disjoint(n1, n2):
                self.assert_same_core(separate(n1, n2))
                compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_last_letter(self, k):
        self.assert_same_core(separate(*last_letter_pair(k)))


class TestMinimalSeparator:
    """`separate` minimizes the core's DFA before it complements and
    relabels; the separator keeps the language that the unminimized DFA gave."""

    @staticmethod
    def assert_same_language(n1, n2, bundle):
        labels = {t.name: t.label for t in n2.transitions}
        unminimized = widen_alphabet(
            relabel(complement(determinize(bundle.core)), labels),
            tuple(dict.fromkeys(n1.alphabet + n2.alphabet)),
        )
        assert minimize(determinize(bundle.separator)) == minimize(determinize(unminimized))
        assert minimize(bundle.complement_dfa) == bundle.complement_dfa

    @pytest.mark.parametrize("k", range(2, 6))
    def test_last_letter(self, k):
        n1, n2 = last_letter_pair(k)
        self.assert_same_language(n1, n2, separate(n1, n2))

    def test_random_pairs(self):
        compared = 0
        for seed in range(100):
            n1, n2 = random_net_pair(seed)
            if disjoint(n1, n2):
                self.assert_same_language(n1, n2, separate(n1, n2))
                compared += 1
        assert compared >= 50


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
        # `separate` decides, then saturates: no node is saturated twice
        nets, preds = [], []
        pred = backward._pred

        def counting(net, *args, **kwargs):
            nets.append(net)
            return saturate(net, *args, **kwargs)

        def recording(v, pre, post):
            preds.append((v, pre, post))
            return pred(v, pre, post)

        for module in ("backward", "automata"):
            monkeypatch.setattr(f"regsep.{module}.saturate", counting)
        monkeypatch.setattr(backward, "_pred", recording)
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        prod = product(bundle.w, bundle.w_det)
        assert nets and all(net == prod for net in nets)
        computed = preds[:]
        preds.clear()
        prestar_basis(prod)
        assert computed == preds and len(preds) == 3
        nets.clear()
        with pytest.raises(NotDisjointError):
            separate(n1, n1)
        assert len(nets) == 1

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
            n1, n2 = random_net_pair(seed)
            if not disjoint(n1, n2):
                continue
            bundle = separate(n1, n2)
            assert set(bundle.separator.alphabet) == set(n1.alphabet) | set(n2.alphabet)

    def test_digests_identify_inputs(self, tmp_path):
        # the CLI hashes the two nets where it writes provenance.json
        n1, n2 = make_worked_pair()
        p1, p2, out = (str(tmp_path / name) for name in ("1.net", "2.net", "out"))
        save_net(n1, p1)
        save_net(n2, p2)
        assert main(["separate", p1, p2, "-o", out]) == 0
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert prov["n1_digest"] == net_digest(n1)
        assert prov["n2_digest"] == net_digest(n2)
        assert prov["n1_digest"] != prov["n2_digest"]

    def test_bundle_certificate_matches_pipeline(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        w_det = identity_labeled(n2)
        w = label_expand(n1, n2)
        prod = product(w, w_det)
        expected = invariant_from_backward(prod, prestar_basis(prod))
        assert bundle.certificate.down == expected.down
        assert bundle.basis == expected.source_basis

    def test_contains_second_language_on_corpus_sample(self):
        for seed in (0, 1, 2, 3, 5, 6):
            n1, n2 = random_net_pair(seed)
            if not disjoint(n1, n2):
                continue
            bundle = separate(n1, n2)
            for w in bounded_language(n2, 6):
                assert member(bundle.separator, w)
            for w in bounded_language(n1, 6):
                assert not member(bundle.separator, w)
