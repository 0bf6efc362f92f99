"""Automaton toolbox vs brute-force language tables, plus the exact
net-versus-automaton emptiness check."""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest

from regsep.automata import (
    Nfa,
    backward_complement,
    complement,
    determinize,
    is_complete_dfa,
    member,
    minimize,
    net_automaton_intersection_witness,
    relabel,
    to_dot,
)
from regsep.backward import coverable
from regsep.config import DEFAULT, Settings
from regsep.errors import BudgetExceededError, InputError
from regsep.generators import last_letter_pair
from regsep.ideals import OMEGA
from regsep.separator import separate
from regsep.verify import verify_separator

from .conftest import candidate_nfa, make_worked_pair, prefix_candidate_nfa, universal_nfa
from .oracles import all_words, naive_language, nfa_words, random_nfa, two_pass_minimize


def simple_nfa() -> Nfa:
    return Nfa(
        states=("q0", "q1"),
        alphabet=("a", "b"),
        transitions=(("q0", "a", "q1"), ("q1", "b", "q0"), ("q0", "a", "q0")),
        initial=frozenset({"q0"}),
        final=frozenset({"q1"}),
    )


class TestValidation:
    def test_undeclared_state(self):
        with pytest.raises(InputError):
            Nfa(
                states=("q0",),
                alphabet=("a",),
                transitions=(("q0", "a", "q1"),),
                initial=frozenset({"q0"}),
                final=frozenset(),
            )

    def test_unknown_letter(self):
        with pytest.raises(InputError):
            Nfa(
                states=("q0",),
                alphabet=("a",),
                transitions=(("q0", "b", "q0"),),
                initial=frozenset({"q0"}),
                final=frozenset(),
            )


def annotated(annotations, places=("p",)):
    return Nfa(
        states=("a", "b"),
        alphabet=("x",),
        transitions=(),
        initial=frozenset({"a"}),
        final=frozenset(),
        annotations=annotations,
        annotation_places=places,
    )


class TestAnnotationValidation:
    def test_well_formed_annotations(self):
        a = annotated((("a", (3,)), ("b", (OMEGA,))))
        assert dict(a.annotations) == {"a": (3,), "b": (OMEGA,)}

    def test_duplicate_annotation_places(self):
        with pytest.raises(InputError, match="duplicate annotation places"):
            annotated((("a", (0, 3)),), places=("p", "p"))

    def test_state_annotated_twice(self):
        # dict(a.annotations) would keep only the second vector
        with pytest.raises(InputError, match="annotated twice"):
            annotated((("a", (1,)), ("a", (3,))))

    @pytest.mark.parametrize("u", [(1.5,), (-2,), (True,), ("w",), (1.5, -2), ()])
    def test_malformed_vector(self, u):
        # a vector longer than the places would be truncated by the writer's zip
        with pytest.raises(InputError):
            annotated((("a", u),))


class TestMember:
    def test_simulation(self):
        a = simple_nfa()
        assert member(a, ("a",))
        assert member(a, ("a", "b", "a"))
        assert not member(a, ())
        assert not member(a, ("b",))

    def test_unknown_letter_rejects(self):
        assert not member(simple_nfa(), ("z",))


def reachable_states(a: Nfa) -> set[str]:
    seen = set(a.initial)
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for p, _, r in a.transitions:
            if p == s and r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


class TestDeterminize:
    def test_worked_core_gets_no_unreached_sink(self):
        n1, n2 = make_worked_pair()
        core = separate(n1, n2).core
        assert len(core.states) == 4
        dfa = determinize(core)
        assert is_complete_dfa(dfa)
        # the four chain states; no word leads to the empty subset
        assert len(dfa.states) == 4 and "{}" not in dfa.states

    def test_every_state_is_reachable(self):
        cores = [separate(*make_worked_pair()).core]
        cores += [separate(*last_letter_pair(k)).core for k in (2, 3, 4)]
        rng = random.Random(23)
        cores += [random_nfa(rng, n_states=rng.randint(2, 7)) for _ in range(200)]
        with_empty = 0
        for a in cores:
            dfa = determinize(a)
            assert is_complete_dfa(dfa)
            assert reachable_states(dfa) == set(dfa.states)
            with_empty += "{}" in dfa.states
        assert 0 < with_empty < len(cores)  # the empty subset only when reached

    def test_language_preserved_random(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_nfa(rng)
            dfa = determinize(a)
            assert is_complete_dfa(dfa)
            assert nfa_words(a, 5) == nfa_words(dfa, 5)


class TestDeterminizeBudget:
    def test_raises_past_node_budget(self):
        core = separate(*last_letter_pair(3)).core
        dfa = determinize(core)
        n = len(dfa.states)  # all reachable
        # exactly the subsets it holds is enough; one fewer is not
        assert determinize(core, Settings(node_budget=n)) == dfa
        with pytest.raises(BudgetExceededError, match=rf"exceeded {n - 1} subsets: reached {n} "):
            determinize(core, Settings(node_budget=n - 1))

    def test_separate_and_verify_pass_their_settings(self, monkeypatch):
        seen = []

        def spy(construction):
            def spied(a, settings=DEFAULT):
                seen.append(settings)
                return construction(a, settings)

            return spied

        monkeypatch.setattr("regsep.separator.determinize", spy(determinize))
        monkeypatch.setattr("regsep.verify.backward_complement", spy(backward_complement))
        n1, n2 = make_worked_pair()
        roomy = Settings(node_budget=10_000)
        verify_separator(n1, n2, separate(n1, n2, roomy).separator, roomy)
        assert seen == [roomy, roomy]

    def test_verification_raises_in_subset_construction(self):
        # the last-letter candidate needs only k+4 subsets backward; its
        # prefix-shaped mirror image needs 67 at k=6
        n1, n2 = last_letter_pair(6)
        with pytest.raises(
            BudgetExceededError,
            match=r"subset construction exceeded 50 subsets: reached 51 after expanding 27$",
        ):
            verify_separator(n1, n2, prefix_candidate_nfa(6, 1), Settings(node_budget=50))


class TestComplement:
    def test_requires_complete_dfa(self):
        with pytest.raises(InputError):
            complement(simple_nfa())

    def test_involution_on_language(self):
        rng = random.Random(12)
        for _ in range(30):
            a = random_nfa(rng)
            dfa = determinize(a)
            twice = complement(complement(dfa))
            assert nfa_words(twice, 6) == nfa_words(dfa, 6)

    def test_exact_flip(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_nfa(rng)
            dfa = determinize(a)
            comp = complement(dfa)
            accepted = nfa_words(dfa, 4)
            for w in all_words(a.alphabet, 4):
                assert member(comp, w) == (w not in accepted)


class TestBackwardComplement:
    def test_language_is_complement_random(self):
        rng = random.Random(16)
        for _ in range(30):
            a = random_nfa(rng)
            co_a = backward_complement(a)
            for w in all_words(a.alphabet, 6):
                assert member(co_a, w) == (not member(a, w))

    def test_one_predecessor_per_state_and_letter(self):
        co_a = backward_complement(random_nfa(random.Random(17)))
        into = [(r, letter) for _, letter, r in co_a.transitions]
        assert len(into) == len(set(into)) == len(co_a.states) * len(co_a.alphabet)
        assert len(co_a.final) == 1

    def test_linear_on_last_letter_candidates(self):
        # the forward minimal DFAs have 7, 11, 19, 35, 67 and 131 states
        for k in range(2, 8):
            for bit in (0, 1):
                assert len(backward_complement(candidate_nfa(k, bit)).states) == k + 4

    def test_linear_on_last_letter_separators(self):
        minimal, backward = {}, {}
        for k in range(2, 7):
            sep = separate(*last_letter_pair(k)).separator
            minimal[k] = len(minimize(determinize(sep)).states)
            backward[k] = len(backward_complement(sep).states)
        assert minimal == {2: 11, 3: 17, 4: 28, 5: 49, 6: 90}
        assert backward == {k: 5 * k + 2 for k in range(2, 7)}


class TestRelabel:
    def test_identity_preserves_transitions(self):
        a = simple_nfa()
        out = relabel(a, {"a": "a", "b": "b"})
        assert sorted(out.transitions) == sorted(a.transitions)

    def test_missing_letter_rejected(self):
        with pytest.raises(InputError):
            relabel(simple_nfa(), {"a": "x"})

    def test_homomorphic_image(self):
        rng = random.Random(14)
        for _ in range(30):
            a = random_nfa(rng)
            mapping = {"a": "x", "b": "x"}
            out = relabel(a, mapping)
            expected = {tuple(mapping[c] for c in w) for w in nfa_words(a, 4)}
            got = {w for w in nfa_words(out, 4)}
            # the image is contained in the relabeled language; equality can
            # fail in general, but containment is the defining direction
            assert expected <= got


class TestMinimize:
    def test_language_preserving_and_idempotent(self):
        rng = random.Random(15)
        for _ in range(40):
            a = random_nfa(rng)
            dfa = determinize(a)
            small = minimize(dfa)
            assert nfa_words(small, 6) == nfa_words(dfa, 6)
            assert len(small.states) <= len(dfa.states)
            again = minimize(small)
            assert again.states == small.states
            assert again.transitions == small.transitions

    def test_canonical_across_presentations(self):
        # two DFAs for the same language minimize to identical automata
        a = simple_nfa()
        d1 = minimize(determinize(a))
        padded = Nfa(
            states=a.states + ("junk",),
            alphabet=a.alphabet,
            transitions=a.transitions + (("junk", "a", "junk"),),
            initial=a.initial,
            final=a.final,
        )
        d2 = minimize(determinize(padded))
        assert d1 == d2


def _fields(d: Nfa) -> tuple:
    return d.states, d.transitions, d.initial, d.final


class TestMinimizeAgainstTwoPass:
    """`minimize` names blocks in one BFS; the reference walks the blocks again."""

    def test_random_determinized(self):
        rng = random.Random(17)
        unreachable_sinks = 0
        for i in range(2000):
            a = random_nfa(rng, n_states=rng.randint(2, 7), alphabet="abc"[: 1 + i % 3])
            dfa = determinize(a)
            if "{}" not in dfa.states:
                # an empty sink that no edge enters, which `minimize` must drop
                dfa = replace(dfa, states=dfa.states + ("{}",),
                              transitions=dfa.transitions + tuple(("{}", x, "{}") for x in dfa.alphabet))
                unreachable_sinks += 1
            assert _fields(minimize(dfa)) == _fields(two_pass_minimize(dfa))
        assert unreachable_sinks >= 500

    @pytest.mark.parametrize("k", range(2, 8))
    @pytest.mark.parametrize("bit", (0, 1))
    def test_last_letter_candidates(self, k, bit):
        dfa = determinize(candidate_nfa(k, bit))
        assert _fields(minimize(dfa)) == _fields(two_pass_minimize(dfa))


class TestNetAutomatonEmpty:
    def test_universal_automaton_matches_coverability(self):
        n1, n2 = make_worked_pair()
        for net in (n1, n2):
            univ = universal_nfa(net.alphabet)
            assert (net_automaton_intersection_witness(net, univ) is not None) == coverable(net)

    def test_no_final_states(self):
        n1, _ = make_worked_pair()
        empty = Nfa(
            states=("u",),
            alphabet=n1.alphabet,
            transitions=(),
            initial=frozenset({"u"}),
            final=frozenset(),
        )
        assert net_automaton_intersection_witness(n1, empty) is None

    def test_worked_pair_separator_disjoint_from_first_net(self):
        n1, n2 = make_worked_pair()
        bundle = separate(n1, n2)
        assert net_automaton_intersection_witness(n1, bundle.separator) is None
        # confirmed by direct word enumeration to length 8
        sep_words = {w for w in all_words(("a",), 8) if member(bundle.separator, w)}
        assert not (naive_language(n1, 8) & sep_words)

    def test_witness_is_in_both_languages(self):
        n1, _ = make_worked_pair()
        univ = universal_nfa(("a",))
        w = net_automaton_intersection_witness(n1, univ)
        assert w is not None
        assert w in naive_language(n1, len(w))
        assert member(univ, w)

    def test_agrees_with_bounded_joint_exploration(self):
        rng = random.Random(16)
        from regsep.generators import random_net_pair

        for seed in range(20):
            net, _ = random_net_pair(seed, places=2, transitions=2, norm=1)
            a = random_nfa(rng, alphabet=net.alphabet)
            empty = net_automaton_intersection_witness(net, a) is None
            joint = naive_language(net, 8) & nfa_words(a, 8)
            if joint:
                assert not empty
            # bounded exploration finding nothing is inconclusive for the
            # positive direction, so only the refutation is asserted


class TestDot:
    def test_renders(self):
        out = to_dot(simple_nfa())
        assert out.startswith("digraph")
        assert 'n0 [shape=circle, label="q0"];' in out
        assert 'n0 -> n1 [label="a"];' in out

    def test_escapes_names_and_letters(self):
        a = Nfa(
            states=('s"1', "hidden", "back\\"),
            alphabet=('"',),
            transitions=(('s"1', '"', "hidden"), ("hidden", '"', "back\\")),
            initial=frozenset({'s"1'}),
            final=frozenset({"hidden"}),
        )
        out = to_dot(a)
        quoted = r'"(?:[^"\\]|\\.)*"'
        token = rf'\s*(?:{quoted}|\w+|->|[\[\]=,;{{}}])'
        for line in out.splitlines():
            assert re.fullmatch(rf"(?:{token})*\s*", line), line
        # the labels unescape as JSON strings do (a quote and a backslash
        # escape alike), and the start node stays apart from state "hidden"
        labels = re.findall(rf"(\w+) \[shape=\w+, label=({quoted})\];", out)
        assert [(node, json.loads(label)) for node, label in labels] == [
            ("hidden", ""), ("n0", 's"1'), ("n1", "hidden"), ("n2", "back\\"),
        ]
        assert "hidden -> n0;" in out
        assert 'n0 -> n1 [label="\\""];' in out
