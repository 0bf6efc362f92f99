"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: direct definitions, exhaustive
enumeration, no reuse of the algorithms under test.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from typing import Iterable, Sequence

from regsep.automata import (
    Nfa,
    complement,
    determinize,
    is_complete_dfa,
    minimize,
    net_automaton_intersection_witness,
)
from regsep.backward import BackwardResult, pred_basis, replay_chain
from regsep.config import DEFAULT, Settings
from regsep.errors import InputError
from regsep.ideals import (
    OMEGA,
    Antichain,
    Coord,
    DownSet,
    IdealAntichain,
    Marking,
    OmegaMarking,
    UpSet,
    check_omega_marking,
    ideal_fire,
    omega_leq,
)
from regsep.invariant import InvariantCertificate, check_invariant
from regsep.petri import LabeledPetriNet, injectively_labeled, product
from regsep.separator import DEAD_STATE
from regsep.verify import SeparatorReport

Word = tuple[str, ...]


def all_markings(dimension: int, cap: int) -> Iterable[Marking]:
    """Every vector in {0..cap}^dimension."""
    return itertools.product(range(cap + 1), repeat=dimension)


def naive_member_up(m: Marking, basis: Iterable[Marking]) -> bool:
    return any(all(b <= x for b, x in zip(vec, m)) for vec in basis)


def naive_coord_leq(a: Coord, b: Coord) -> bool:
    if b == OMEGA:
        return True
    if a == OMEGA:
        return False
    return a <= b


def naive_member_down(m: Marking, ideals: Iterable[OmegaMarking]) -> bool:
    return any(all(naive_coord_leq(x, u) for x, u in zip(m, vec)) for vec in ideals)


def scan_containing(ideals: Sequence[OmegaMarking], s: OmegaMarking) -> list[OmegaMarking]:
    """The ideals containing `s`, in the given order, comparing `s` with
    every ideal.  This is the witness search's cover pruning and the query
    of `check_invariant` before `regsep.ideals.IdealIndex` replaced them,
    kept as its reference.  OMEGA is
    `math.inf`, so the plain `<=` on coordinates is the order of N_omega."""
    return [u for u in ideals if all(map(operator.le, s, u))]


def scan_check_invariant(net: LabeledPetriNet, x: DownSet) -> tuple[bool, bool, bool, dict]:
    """(initial_ok, final_ok, closed_ok, successors) of `x` on `net`, by
    firing every step on every ideal and scanning every ideal for the ones
    containing the successor: the reference for
    `regsep.invariant.check_invariant`."""
    successors = {}
    for u in x.ideals:
        for t in net.transitions:
            if all(map(naive_coord_leq, t.pre, u)):
                s = tuple(c if c == OMEGA else c - p + q for c, p, q in zip(u, t.pre, t.post))
                successors[u, t.name] = scan_containing(x.ideals, s)
    initial_ok = bool(scan_containing(x.ideals, net.initial))
    final_ok = not any(all(map(naive_coord_leq, net.final, u)) for u in x.ideals)
    return initial_ok, final_ok, all(successors.values()), successors


def intersect_ideals(u: OmegaMarking, v: OmegaMarking) -> OmegaMarking:
    """Intersection of two ideals: componentwise min."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(map(min, u, v))


def image_words(words: Iterable[Word], mapping: dict[str, str]) -> tuple[Word, ...]:
    """Apply a letter homomorphism to a set of words; deterministic order."""
    out = {tuple(mapping[x] for x in w) for w in words}
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def naive_canonicalize_down(dimension: int, ideals: Iterable[OmegaMarking]) -> DownSet:
    """Keep only maximal ideals, sorted canonically, comparing every pair.

    This is the library's original `canonicalize_down`, kept as the
    reference for the maximal ideals that `regsep.ideals.IdealAntichain`
    keeps.
    """
    vecs = list(dict.fromkeys(tuple(u) for u in ideals))
    for u in vecs:
        check_omega_marking(u, dimension)
    maximal = [
        u
        for u in vecs
        if not any(w != u and all(map(naive_coord_leq, u, w)) for w in vecs)
    ]
    return DownSet(dimension, tuple(sorted(set(maximal))))


def naive_maximal(markings: Iterable[Marking]) -> list[Marking]:
    """The maximal markings, in order of first occurrence, comparing every
    pair: the original maximality filter of `regsep.verify.bounded_language`."""
    ms = list(dict.fromkeys(markings))
    return [
        m
        for m in ms
        if not any(n != m and all(x <= y for x, y in zip(m, n)) for n in ms)
    ]


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


def reachable_markings(net: LabeledPetriNet, depth: int | None = None, limit: int = 100_000) -> set[Marking]:
    """Every marking reached in at most `depth` steps (any number when None),
    breadth-first; raises RuntimeError past `limit` markings, since an
    unbounded net has infinitely many."""
    seen = {net.initial}
    frontier = [net.initial]
    steps = 0
    while frontier and (depth is None or steps < depth):
        steps += 1
        nxt = []
        for m in frontier:
            for t in net.transitions:
                m2 = naive_fire(net, m, t.name)
                if m2 is not None and m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        if len(seen) > limit:
            raise RuntimeError(f"over {limit} reachable markings")
        frontier = nxt
    return seen


def bfs_cover(net: LabeledPetriNet) -> list[Marking]:
    """The maximal reachable markings of a bounded net, sorted: its
    coverability set, by exhaustive breadth-first reachability."""
    return sorted(naive_maximal(reachable_markings(net)))


def per_transition_forward_cover(net: LabeledPetriNet, limit: int) -> IdealAntichain | None:
    """The Karp-Miller cover loop that fires every transition on every
    node, as `regsep.backward.forward_cover` did before it merged the
    transitions with equal pre and post vectors and skipped the ones whose
    pre needs a place where the node is 0; kept as its reference, with the
    same limit."""
    kept = IdealAntichain([net.initial])
    queue = deque([(net.initial, None)])  # (label, parent node)
    nodes = 1
    while queue:
        node = u, _ = queue.popleft()
        if u not in kept:
            continue  # evicted while waiting
        for t in net.transitions:
            if (y := ideal_fire(u, t.pre, t.post)) is None:
                continue
            up = node
            while up is not None:
                a, up = up
                if all(x <= z for x, z in zip(a, y)):
                    y = tuple(z if x == z else OMEGA for x, z in zip(a, y))
            if kept.add(y):
                nodes += 1
                if nodes > limit:
                    return None
                queue.append((y, node))
    return kept


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
    from regsep.automata import Nfa, is_complete_dfa

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


def random_upset(rng: random.Random, dimension: int, max_basis: int, norm: int) -> UpSet:
    vectors = [
        tuple(rng.randint(0, norm) for _ in range(dimension))
        for _ in range(rng.randint(0, max_basis))
    ]
    return UpSet(dimension, tuple(sorted(Antichain(vectors))))


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
        acc = list(naive_canonicalize_down(d, acc).ideals)
        if not acc:
            break
    return naive_canonicalize_down(d, acc)


def list_prestar_basis(net: LabeledPetriNet) -> tuple[BackwardResult, dict]:
    """Backward saturation with the basis kept as a plain list.

    FIFO worklist over basis elements; every newcomer is compared with every
    incumbent, dominated newcomers are dropped and dominated incumbents
    evicted.  This is the library's original loop, kept as the reference
    for `regsep.backward.prestar_basis`; the final basis goes through the
    validating `UpSet` constructor.  Returns the result and the map from
    each kept marking to the (transition, marking) pair that generated it,
    None at the final marking.
    """
    root = net.final
    basis: list[Marking] = [root]
    parents: dict = {root: None}
    queue: deque[Marking] = deque([root])
    iterations = 0
    while queue:
        v = queue.popleft()
        if v not in basis:
            continue  # evicted while waiting
        iterations += 1
        for t in net.transitions:
            m = pred_basis(net, v, t.name)
            if any(all(b <= x for b, x in zip(other, m)) for other in basis):
                continue  # dominated by an incumbent
            basis = [other for other in basis if not all(x <= b for x, b in zip(m, other))]
            basis.append(m)
            if m not in parents:
                parents[m] = (t.name, v)
            queue.append(m)
    canonical = UpSet(net.dimension, tuple(sorted(basis)))
    coverable = naive_member_up(net.initial, canonical.basis)
    return BackwardResult(canonical, iterations, coverable), parents


def list_intersection_saturation(net: LabeledPetriNet, a) -> tuple[dict, dict, int]:
    """Backward saturation of net x automaton with one list per state.

    Returns the per-state lists of minimal markings, the parents map over
    (state, marking) nodes and the number of nodes expanded.  This is the
    original loop of `regsep.automata.net_automaton_intersection_witness`,
    kept as its reference.
    """
    back: dict[tuple[str, str], list[str]] = {}
    for s, letter, r in a.transitions:
        back.setdefault((r, letter), []).append(s)
    roots = sorted(a.final)
    basis: dict[str, list[Marking]] = {qf: [net.final] for qf in roots}
    Node = tuple[str, Marking]
    parents: dict[Node, tuple[str, Node] | None] = {
        (qf, net.final): None for qf in roots
    }
    queue: deque[Node] = deque((qf, net.final) for qf in roots)
    iterations = 0
    while queue:
        q, v = queue.popleft()
        if v not in basis.get(q, ()):
            continue  # evicted while waiting
        iterations += 1
        for t in net.transitions:
            sources = back.get((q, t.label))
            if not sources:
                continue
            m = pred_basis(net, v, t.name)
            for s in sources:
                ante = basis.setdefault(s, [])
                if any(all(b <= x for b, x in zip(other, m)) for other in ante):
                    continue  # dominated by an incumbent
                basis[s] = [
                    other
                    for other in ante
                    if not all(x <= b for x, b in zip(m, other))
                ] + [m]
                parents.setdefault((s, m), (t.name, (q, v)))
                queue.append((s, m))
    return basis, parents, iterations


def list_intersection_witness(net: LabeledPetriNet, a, saturation=None) -> Word | None:
    """A word in L(net) and L(a), or None, read off `saturation`, the result
    of `list_intersection_saturation(net, a)` (computed when not given)."""
    basis, parents, _ = saturation or list_intersection_saturation(net, a)
    for q0 in sorted(a.initial):
        for b in basis.get(q0, ()):
            if all(x <= y for x, y in zip(b, net.initial)):
                return replay_chain(net, parents, (q0, b))
    return None


def fire_and_scan_core_automaton(
    w: LabeledPetriNet, w_det: LabeledPetriNet, cert: InvariantCertificate,
    prod: LabeledPetriNet | None = None,
) -> Nfa:
    """Automaton whose states are the invariant ideals of product(w, w_det).

    `prod` is that product, built here when not given.  `w_det` must be
    injectively labeled.  A state is initial if it dominates the joint
    initial marking and final if its w-side covers w's final marking.
    Edges over-approximate joint steps existentially: the ideal successor
    leads to every dominating state.  Steps that w can take while w_det
    cannot fall into the absorbing dead state, which is final.

    This is the library's original construction, which fires every step on
    every ideal itself; it is kept as the reference for
    `regsep.separator.build_core_automaton`, which reads the same relation
    off the invariant check.
    """
    if not injectively_labeled(w_det):
        raise ValueError("the deterministic component must be injectively labeled")
    prod = product(w, w_det) if prod is None else prod
    report = check_invariant(prod, cert.down)
    if not report.passed:
        raise ValueError(f"certificate does not pass the invariant check: {report.failures}")
    n1_dim = len(w.places)
    ideals = cert.down.ideals
    names = {u: f"i{k}" for k, u in enumerate(ideals)}
    states = tuple(names[u] for u in ideals) + (DEAD_STATE,)
    joint_initial = prod.initial
    initial = frozenset(
        names[u] for u in ideals if omega_leq(joint_initial, u)
    )
    final = {DEAD_STATE}
    for u in ideals:
        if all(naive_coord_leq(f, c) for f, c in zip(w.final, u[:n1_dim])):
            final.add(names[u])
    edges: set[tuple[str, str, str]] = set()
    for u in ideals:
        for pt in prod.transitions:
            succ = ideal_fire(u, pt.pre, pt.post)
            if succ is not None:
                for r in ideals:
                    if omega_leq(succ, r):
                        edges.add((names[u], pt.label, names[r]))
            else:
                w_side_enabled = all(
                    naive_coord_leq(p, c) for p, c in zip(pt.pre[:n1_dim], u[:n1_dim])
                )
                if w_side_enabled:
                    edges.add((names[u], pt.label, DEAD_STATE))
    for letter in dict.fromkeys(t.label for t in w.transitions):
        edges.add((DEAD_STATE, letter, DEAD_STATE))
    annotations = tuple((names[u], u) for u in ideals)
    return Nfa(
        states=states,
        alphabet=w.alphabet,
        transitions=tuple(sorted(edges)),
        initial=initial,
        final=frozenset(final),
        annotations=annotations,
        annotation_places=prod.places,
    )


def two_pass_minimize(d: Nfa) -> Nfa:
    """Unique minimal complete DFA, by partition refinement.

    Unreachable states are dropped first; states are renamed m0, m1, ... in
    breadth-first order from the initial state, making the result canonical
    and minimization idempotent.

    This is the library's original algorithm, which walks the states
    breadth-first and then the blocks a second time, kept as the reference
    for `regsep.automata.minimize`.
    """
    if not is_complete_dfa(d):
        raise InputError("minimize requires a complete deterministic automaton")
    table = {(s, a): next(iter(ts)) for (s, a), ts in d.successors().items()}
    (start,) = d.initial
    reachable: list[str] = [start]
    seen = {start}
    i = 0
    while i < len(reachable):
        s = reachable[i]
        i += 1
        for a in d.alphabet:
            r = table[(s, a)]
            if r not in seen:
                seen.add(r)
                reachable.append(r)
    block: dict[str, int] = {s: (1 if s in d.final else 0) for s in reachable}
    while True:
        signature = {
            s: (block[s], tuple(block[table[(s, a)]] for a in d.alphabet))
            for s in reachable
        }
        ids: dict[tuple, int] = {}
        new_block: dict[str, int] = {}
        for s in reachable:
            sig = signature[s]
            if sig not in ids:
                ids[sig] = len(ids)
            new_block[s] = ids[sig]
        if new_block == block:
            break
        block = new_block
    # canonical names in BFS order over blocks
    rep_order: list[int] = [block[start]]
    seen_blocks = {block[start]}
    rep_of = {}
    for s in reachable:
        rep_of.setdefault(block[s], s)
    i = 0
    while i < len(rep_order):
        s = rep_of[rep_order[i]]
        i += 1
        for a in d.alphabet:
            nb = block[table[(s, a)]]
            if nb not in seen_blocks:
                seen_blocks.add(nb)
                rep_order.append(nb)
    name = {b: f"m{i}" for i, b in enumerate(rep_order)}
    edges = tuple(
        (name[b], a, name[block[table[(rep_of[b], a)]]])
        for b in rep_order
        for a in d.alphabet
    )
    finals = frozenset(name[b] for b in rep_order if rep_of[b] in d.final)
    return Nfa(
        states=tuple(name[b] for b in rep_order),
        alphabet=d.alphabet,
        transitions=edges,
        initial=frozenset({name[block[start]]}),
        final=finals,
    )


def forward_verify_separator(
    n1: LabeledPetriNet, n2: LabeledPetriNet, b: Nfa, settings: Settings = DEFAULT
) -> SeparatorReport:
    """Check that L(n1) avoids L(b) and L(n2) is contained in L(b) on the
    candidate's minimal DFA: disjointness against the DFA, containment
    against its complement.

    This is the library's original verification, kept as the reference
    for `regsep.verify.verify_separator`, which searches on `b` and on its
    backward complement instead.
    """
    sigma = set(n1.alphabet) | set(n2.alphabet)
    if set(b.alphabet) != sigma:
        raise InputError(
            f"alphabet mismatch: automaton has {sorted(b.alphabet)}, nets need {sorted(sigma)}"
        )
    dfa = minimize(determinize(b, settings))
    w1 = net_automaton_intersection_witness(n1, dfa, settings)
    w2 = net_automaton_intersection_witness(n2, complement(dfa), settings)
    return SeparatorReport(
        disjointness_ok=w1 is None,
        containment_ok=w2 is None,
        disjointness_witness=w1,
        containment_witness=w2,
    )
