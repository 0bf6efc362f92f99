"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: direct definitions, exhaustive
enumeration, no reuse of the algorithms under test.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from regsep.ideals import (
    OMEGA,
    Coord,
    DownSet,
    Marking,
    OmegaMarking,
    UpSet,
    canonicalize_down,
    intersect_ideals,
)
from regsep.petri import LabeledPetriNet

Word = tuple[str, ...]


def all_markings(dimension: int, cap: int) -> Iterable[Marking]:
    """Every vector in {0..cap}^dimension."""
    return itertools.product(range(cap + 1), repeat=dimension)


def naive_member_up(m: Marking, basis: Iterable[Marking]) -> bool:
    return any(all(b <= x for b, x in zip(vec, m)) for vec in basis)


def naive_coord_leq(a: Coord, b: Coord) -> bool:
    if b is OMEGA:
        return True
    if a is OMEGA:
        return False
    return a <= b


def naive_member_down(m: Marking, ideals: Iterable[OmegaMarking]) -> bool:
    return any(all(naive_coord_leq(x, u) for x, u in zip(m, vec)) for vec in ideals)


def naive_fire(net: LabeledPetriNet, m: Marking, tname: str) -> Marking | None:
    t = net.transition(tname)
    if any(x < p for x, p in zip(m, t.pre)):
        return None
    return tuple(x - p + q for x, p, q in zip(m, t.pre, t.post))


def forward_coverable(net: LabeledPetriNet, cap: int = 12) -> bool | None:
    """Forward BFS with every coordinate capped at `cap`.

    Returns True/False when conclusive; None when a marking hit the cap,
    making a negative verdict unreliable.
    """
    seen = {net.initial}
    queue = [net.initial]
    cap_hit = False
    while queue:
        m = queue.pop()
        if all(x >= f for x, f in zip(m, net.final)):
            return True
        for t in net.transitions:
            m2 = naive_fire(net, m, t.name)
            if m2 is None or m2 in seen:
                continue
            if any(x > cap for x in m2):
                cap_hit = True
                continue
            seen.add(m2)
            queue.append(m2)
    return None if cap_hit else False


def naive_language(net: LabeledPetriNet, maxlen: int) -> set[Word]:
    """Accepted words up to maxlen by plain breadth-first run enumeration."""
    accepted: set[Word] = set()
    frontier: list[tuple[Word, Marking]] = [((), net.initial)]
    for _ in range(maxlen + 1):
        nxt: list[tuple[Word, Marking]] = []
        for word, m in frontier:
            if all(x >= f for x, f in zip(m, net.final)):
                accepted.add(word)
            for t in net.transitions:
                m2 = naive_fire(net, m, t.name)
                if m2 is not None:
                    nxt.append((word + (t.label,), m2))
        frontier = nxt
    return {w for w in accepted if len(w) <= maxlen}


def brute_pred_basis(
    net: LabeledPetriNet, v: Marking, tname: str, cap: int
) -> Marking | None:
    """Unique minimal m ≤ cap-vector with t enabled and fire(m, t) ≥ v."""
    candidates = []
    for m in all_markings(net.dimension, cap):
        m2 = naive_fire(net, m, tname)
        if m2 is not None and all(x >= y for x, y in zip(m2, v)):
            candidates.append(m)
    minimal = [
        m
        for m in candidates
        if not any(
            n != m and all(x <= y for x, y in zip(n, m)) for n in candidates
        )
    ]
    return minimal[0] if len(minimal) == 1 else None


def nfa_words(a, maxlen: int) -> set[Word]:
    """Accepted words of an automaton up to maxlen, by direct simulation."""
    table: dict[tuple[str, str], set[str]] = {}
    for s, letter, r in a.transitions:
        table.setdefault((s, letter), set()).add(r)
    accepted: set[Word] = set()
    frontier: list[tuple[Word, frozenset[str]]] = [((), frozenset(a.initial))]
    for _ in range(maxlen + 1):
        nxt = []
        for word, states in frontier:
            if states & a.final:
                accepted.add(word)
            for letter in a.alphabet:
                targets = frozenset().union(
                    *(table.get((s, letter), set()) for s in states)
                ) if states else frozenset()
                if targets:
                    nxt.append((word + (letter,), targets))
        frontier = nxt
    return {w for w in accepted if len(w) <= maxlen}


def all_words(alphabet: Sequence[str], maxlen: int) -> Iterable[Word]:
    for n in range(maxlen + 1):
        yield from itertools.product(alphabet, repeat=n)


def random_nfa(rng: random.Random, n_states: int = 5, alphabet: Sequence[str] = ("a", "b")):
    """A random automaton for differential testing."""
    from regsep.automata import Nfa

    states = tuple(f"q{i}" for i in range(n_states))
    edges = set()
    for _ in range(rng.randint(n_states, 3 * n_states)):
        edges.add(
            (rng.choice(states), rng.choice(tuple(alphabet)), rng.choice(states))
        )
    initial = frozenset(rng.sample(states, rng.randint(1, 2)))
    final = frozenset(
        s for s in states if rng.random() < 0.4
    ) or frozenset({rng.choice(states)})
    return Nfa(
        states=states,
        alphabet=tuple(alphabet),
        transitions=tuple(sorted(edges)),
        initial=initial,
        final=final,
    )


def random_upset(rng: random.Random, dimension: int, max_basis: int, norm: int):
    from regsep.ideals import canonicalize_up

    vectors = [
        tuple(rng.randint(0, norm) for _ in range(dimension))
        for _ in range(rng.randint(0, max_basis))
    ]
    return canonicalize_up(dimension, vectors)


def fold_complement_upset(u: UpSet) -> DownSet:
    """Ideal decomposition of N^d minus the given upward-closed set.

    Per basis vector v the complement of its cone is the union, over
    coordinates j with v(j) > 0, of the ideals with coordinate j pinned to
    v(j)-1 and OMEGA elsewhere; coordinates with v(j) = 0 contribute an
    empty disjunct and are skipped.  The per-vector unions are intersected
    pairwise, canonicalizing after each fold to bound intermediate growth.

    This is the library's original algorithm, kept as the reference for
    `regsep.ideals.complement_upset`.
    """
    d = u.dimension
    acc: list[OmegaMarking] = [tuple([OMEGA] * d)]
    for v in u.basis:
        disjuncts: list[OmegaMarking] = []
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            ideal = [OMEGA] * d
            ideal[j] = vj - 1
            disjuncts.append(tuple(ideal))
        acc = [intersect_ideals(a, b) for a in acc for b in disjuncts]
        acc = list(canonicalize_down(d, acc).ideals)
        if not acc:
            break
    return canonicalize_down(d, acc)
