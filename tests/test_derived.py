"""Objects derived from validated ones skip validation, so each must equal
its validating rebuild.

The public constructors, the file readers and the CLI validate what comes
from outside.  The derivations build their outputs through
`ideals._derived`, which sets the fields without running `__post_init__`.
Here every object built that way is rebuilt with `dataclasses.replace`,
which runs every check of the public constructor: the rebuild must not
raise, and must equal the object.  Transition and state names that join
several names escape their separator, so the derived names stay distinct
for any input names (`DRAWN_NAMES` holds the ones that would collide)."""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from regsep import automata, backward, ideals, petri
from regsep.automata import Nfa, backward_complement, determinize
from regsep.backward import disjoint, prestar_basis
from regsep.errors import NotDisjointError
from regsep.generators import last_letter_net, last_letter_pair, random_net_pair
from regsep.invariant import invariant_from_backward
from regsep.petri import LabeledPetriNet, Transition, identity_labeled, label_expand, product
from regsep.separator import build_core_automaton, separate
from regsep.verify import verify_separator

from .conftest import candidate_nfa
from .test_corpus import BLOWN_UP, LIVE
from .test_cover import separation_pairs

SEPARATE = {
    "label_expand", "identity_labeled", "product", "prestar_basis", "complement_upset",
    "determinize", "minimize", "complement", "relabel", "widen_alphabet",
}
VERIFY = {"backward_complement"}
# names of the first and second nets that collide once joined by "," or "^"
# without escaping: (a^b)^c and a^(b^c), say
DRAWN_NAMES = (("a", "a^b", "a,b", "\\", "(a"), ("c", "b^c", "b,c", ",", "c)"))


@pytest.fixture()
def built(monkeypatch):
    """(derivation, object) for each object `_derived` builds in the test."""
    out = []
    derived = ideals._derived

    def recording(*args, **fields):
        obj = derived(*args, **fields)
        out.append((sys._getframe(1).f_code.co_name, obj))
        return obj

    for module in (ideals, petri, backward, automata):
        monkeypatch.setattr(module, "_derived", recording)
    return out


def rebuilt_derivations(built) -> set[str]:
    """The derivations that built something, after checking each object
    against its validating rebuild."""
    for name, obj in built:
        assert replace(obj) == obj, name
    return {name for name, _ in built}


def separate_and_verify(n1: LabeledPetriNet, n2: LabeledPetriNet) -> bool:
    """`separate`, and `verify_separator` on its separator; False if the
    pair overlaps."""
    try:
        bundle = separate(n1, n2)
    except NotDisjointError:
        return False
    assert verify_separator(n1, n2, bundle.separator).passed
    return True


def test_separation_pairs(built):
    separated = sum(separate_and_verify(n1, n2) for _, n1, n2 in separation_pairs())
    assert separated == 199
    assert rebuilt_derivations(built) == SEPARATE | VERIFY


def test_live_corpus(built):
    for regime, seeds in LIVE.items():
        for seed in seeds:
            n1, n2 = random_net_pair(seed, *regime)
            if (regime, seed) != BLOWN_UP:
                assert separate_and_verify(n1, n2), (regime, seed)
                continue
            # `separate`'s chain up to the core, whose subset construction
            # would take most of a minute
            w, w_det = label_expand(n1, n2), identity_labeled(n2)
            prod = product(w, w_det)
            build_core_automaton(w, w_det, invariant_from_backward(prod, prestar_basis(prod)), prod)
    # n1 and n2 share their alphabet, so no separator needs widening
    assert rebuilt_derivations(built) == SEPARATE - {"widen_alphabet"} | VERIFY


@pytest.mark.parametrize("k", range(1, 8))
def test_last_letter(built, k):
    n1, n2 = last_letter_pair(k)
    assert disjoint(n1, n2)
    n = last_letter_net(0, k)
    with pytest.raises(NotDisjointError):
        separate(n, n)
    for bit in (1, 0):
        assert verify_separator(n1, n2, candidate_nfa(k, bit)).passed is (bit == 1)
    assert rebuilt_derivations(built) == {"product", "label_expand", "identity_labeled"} | VERIFY


def drawn_net(
    rng: random.Random, names: tuple[str, ...], places: tuple[str, ...], alphabet: tuple[str, ...]
) -> LabeledPetriNet:
    def vector() -> tuple[int, ...]:
        return tuple(rng.randint(0, 2) for _ in places)

    names = rng.sample(names, rng.randint(1, 4))
    return LabeledPetriNet(
        places=places,
        alphabet=alphabet,
        transitions=tuple(Transition(x, rng.choice(alphabet), vector(), vector()) for x in names),
        initial=vector(),
        final=vector(),
    )


def collide(names: list[str]) -> bool:
    return len(set(names)) < len(names)


def test_drawn_pairs(built):
    # places shared or not, alphabets equal or not, names from DRAWN_NAMES;
    # `separate` refuses a pair exactly when `disjoint` says it overlaps
    rng = random.Random(25)
    separated = collided = 0
    for _ in range(300):
        p1 = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
        p2 = p1 if rng.random() < 0.5 else ("q",)
        n1 = drawn_net(rng, DRAWN_NAMES[0], p1, ("x", "y"))
        n2 = drawn_net(rng, DRAWN_NAMES[1], p2, ("x", "y")[: rng.randint(1, 2)])
        pairs = [
            (t1.name, t2.name)
            for t1 in n1.transitions
            for t2 in n2.transitions
            if t1.label == t2.label
        ]
        # the names that `product` and `label_expand` gave without the escapes
        collided += collide([f"({a},{b})" for a, b in pairs]) or collide(
            [f"{a}^{b}" for a, b in pairs]
        )
        verdict = disjoint(n1, n2)
        assert separate_and_verify(n1, n2) is verdict
        separated += verdict
    assert (separated, collided) == (193, 11)
    assert rebuilt_derivations(built) == SEPARATE | VERIFY


def test_subset_names_of_colliding_state_names(built):
    # joined without escaping, {"a,b"} and {"a", "b"} would both be "{a,b}",
    # and {""} would be the empty subset's "{}"
    a = Nfa(
        states=("a,b", "a", "b", "", "\\"),
        alphabet=("x", "y"),
        transitions=(
            ("a,b", "x", "a"),
            ("a,b", "x", "b"),
            ("a,b", "y", "a,b"),
            ("a", "y", ""),
            ("", "y", "\\"),
        ),
        initial=frozenset({"a,b"}),
        final=frozenset({"b", "\\"}),
    )
    dfa = determinize(a)
    assert set(dfa.states) == {"{a,b}", "{a\\,b}", "{}", "{\\\\}", "{\\e}"}
    co_a = backward_complement(a)
    assert len(set(co_a.states)) == len(co_a.states)
    assert rebuilt_derivations(built) == {"determinize", "backward_complement"}
