"""Benchmark families: the scaled last-letter pair and seeded random pairs."""

from __future__ import annotations

import random

from .errors import InputError
from .petri import LabeledPetriNet, Transition

LAST_LETTER_ALPHABET = ("0", "1", "b", "c")
RANDOM_ALPHABET = ("a", "b")
DEFAULT_K_CAP = 10


def last_letter_net(bit: int, k: int) -> LabeledPetriNet:
    """Net accepting c.u.x.v.c with u,v over {0,1}, |v| = k-1, and x = bit.

    A counter place starts preloaded with k tokens; the bit transition and
    every later 0/1 step each move one token to the checked-in side, and
    acceptance demands all k of them back, pinning the bit to the k-last
    position of the 0/1 core.  Four control places sequence the phases.
    """
    if bit not in (0, 1):
        raise InputError("bit must be 0 or 1")
    if not 1 <= k <= DEFAULT_K_CAP:
        raise InputError(f"k must be between 1 and {DEFAULT_K_CAP}")
    places = ("p1", "p2", "p3", "p4", "out", "in")

    def vec(**kw: int) -> tuple[int, ...]:
        return tuple(kw.get(p, 0) for p in places)

    x = str(bit)
    transitions = (
        Transition("enter", "c", vec(p1=1), vec(p2=1)),
        Transition("free0", "0", vec(p2=1), vec(p2=1)),
        Transition("free1", "1", vec(p2=1), vec(p2=1)),
        Transition("mark", x, vec(p2=1, out=1), vec(p3=1, **{"in": 1})),
        Transition("count0", "0", vec(p3=1, out=1), vec(p3=1, **{"in": 1})),
        Transition("count1", "1", vec(p3=1, out=1), vec(p3=1, **{"in": 1})),
        Transition("leave", "c", vec(p3=1), vec(p4=1)),
    )
    return LabeledPetriNet(
        places=places,
        alphabet=LAST_LETTER_ALPHABET,
        transitions=transitions,
        initial=vec(p1=1, out=k),
        final=vec(p4=1, **{"in": k}),
    )


def last_letter_pair(k: int) -> tuple[LabeledPetriNet, LabeledPetriNet]:
    """The two nets whose 0/1 cores disagree on the k-last letter."""
    return last_letter_net(0, k), last_letter_net(1, k)


def _random_net(rng: random.Random, places: int, transitions: int, norm: int) -> LabeledPetriNet:
    names = tuple(f"p{i}" for i in range(places))

    def vector() -> tuple[int, ...]:
        return tuple(rng.randint(0, norm) for _ in range(places))

    trans = tuple(
        Transition(f"t{i}", rng.choice(RANDOM_ALPHABET), vector(), vector())
        for i in range(transitions)
    )
    final = vector()
    if all(c == 0 for c in final):
        # a zero final marking accepts everything; force one token somewhere
        idx = rng.randrange(places)
        final = tuple(1 if i == idx else 0 for i in range(places))
    return LabeledPetriNet(
        places=names,
        alphabet=RANDOM_ALPHABET,
        transitions=trans,
        initial=vector(),
        final=final,
    )


def random_net_pair(
    seed: int, places: int = 3, transitions: int = 3, norm: int = 2
) -> tuple[LabeledPetriNet, LabeledPetriNet]:
    """Two nets drawn from one generator seeded with `seed`; the same
    arguments always give the same pair.  Whether their languages are
    disjoint is left to `backward.disjoint`."""
    if places < 1 or transitions < 0 or norm < 0:
        raise InputError("generator parameters out of range")
    rng = random.Random(seed)
    return _random_net(rng, places, transitions, norm), _random_net(rng, places, transitions, norm)
