"""Shared fixtures: the worked example pair and its variant with names that
join ambiguously, the last-letter candidate NFAs
and their prefix-shaped mirror images, the automaton of all words, the
random disjoint corpus and a net's complete forward cover."""

from __future__ import annotations

import pytest

from regsep.automata import Nfa
from regsep.backward import disjoint, forward_cover
from regsep.config import DEFAULT
from regsep.generators import LAST_LETTER_ALPHABET, random_net_pair
from regsep.ideals import IdealAntichain
from regsep.petri import LabeledPetriNet, Transition
from regsep.separator import separate


def make_worked_pair() -> tuple[LabeledPetriNet, LabeledPetriNet]:
    """N1 accepts a^(>=2); N2 accepts {empty word, a}."""
    n1 = LabeledPetriNet(
        places=("p",),
        alphabet=("a",),
        transitions=(Transition("t_a", "a", (0,), (1,)),),
        initial=(0,),
        final=(2,),
    )
    n2 = LabeledPetriNet(
        places=("q",),
        alphabet=("a",),
        transitions=(Transition("s_a", "a", (1,), (0,)),),
        initial=(2,),
        final=(1,),
    )
    return n1, n2


def joined_names_pair(sep: str) -> tuple[LabeledPetriNet, LabeledPetriNet]:
    """The worked pair with two transitions per net, all labeled "x": the
    first net's "a<sep>b" and "a", the second's "c" and "b<sep>c".  Joined
    by `sep` without escaping, "a<sep>b" with "c" and "a" with "b<sep>c"
    give the same name."""
    n1 = LabeledPetriNet(
        places=("p",),
        alphabet=("x",),
        transitions=(Transition(f"a{sep}b", "x", (0,), (1,)), Transition("a", "x", (0,), (1,))),
        initial=(0,),
        final=(2,),
    )
    n2 = LabeledPetriNet(
        places=("q",),
        alphabet=("x",),
        transitions=(Transition("c", "x", (1,), (0,)), Transition(f"b{sep}c", "x", (1,), (0,))),
        initial=(2,),
        final=(1,),
    )
    return n1, n2


def complete_cover(net: LabeledPetriNet) -> IdealAntichain:
    """The net's complete forward cover, limited to the default node budget,
    which no net of the tests exceeds."""
    cover = forward_cover(net, DEFAULT.node_budget)
    assert cover is not None
    return cover


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


def prefix_candidate_nfa(k: int, bit: int) -> Nfa:
    """NFA for c{0,1}^(k-1)<bit>{0,1}*c, the mirror image of `candidate_nfa`:
    its reverse needs 2^k subsets."""
    states = ("s0",) + tuple(f"q{i}" for i in range(1, k + 1)) + ("s1", "f")
    edges = [("s0", "c", "q1"), (f"q{k}", str(bit), "s1"), ("s1", "0", "s1"), ("s1", "1", "s1")]
    for i in range(1, k):
        edges += [(f"q{i}", "0", f"q{i + 1}"), (f"q{i}", "1", f"q{i + 1}")]
    edges.append(("s1", "c", "f"))
    return Nfa(
        states=states,
        alphabet=LAST_LETTER_ALPHABET,
        transitions=tuple(edges),
        initial=frozenset({"s0"}),
        final=frozenset({"f"}),
    )


def universal_nfa(alphabet: tuple[str, ...]) -> Nfa:
    """One state, initial and final, with a loop on every letter: it accepts
    every word over `alphabet`."""
    return Nfa(
        states=("u",),
        alphabet=alphabet,
        transitions=tuple(("u", x, "u") for x in alphabet),
        initial=frozenset({"u"}),
        final=frozenset({"u"}),
    )


@pytest.fixture(scope="session")
def worked_pair() -> tuple[LabeledPetriNet, LabeledPetriNet]:
    return make_worked_pair()


def corpus_seeds(count: int = 50) -> list[int]:
    """The first `count` seeds whose generated pair is disjoint."""
    seeds = []
    seed = 0
    while len(seeds) < count:
        if disjoint(*random_net_pair(seed)):
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.fixture(scope="session")
def disjoint_corpus():
    """(n1, n2, bundle) for 50 seeded disjoint random pairs."""
    out = []
    for seed in corpus_seeds(50):
        n1, n2 = random_net_pair(seed)
        out.append((seed, n1, n2, separate(n1, n2)))
    return out
