"""Finite-automaton toolbox: determinization, complement, relabeling,
membership, minimization, and the exact net-vs-automaton emptiness check.

States are opaque strings; a state may carry an omega-marking annotation
(used by the separator construction).  All constructions are deterministic
so serialized artifacts are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .backward import replay_chain, saturate
from .config import DEFAULT, Settings
from .errors import BudgetExceededError, InputError
from .ideals import OmegaMarking
from .petri import LabeledPetriNet

Edge = tuple[str, str, str]


@dataclass(frozen=True)
class Nfa:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[Edge, ...]
    initial: frozenset[str]
    final: frozenset[str]
    # optional per-state omega-marking payload, with the place names the
    # annotation coordinates refer to
    annotations: tuple[tuple[str, OmegaMarking], ...] = ()
    annotation_places: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states):
            raise InputError("duplicate state names")
        letters = set(self.alphabet)
        if len(letters) != len(self.alphabet):
            raise InputError("duplicate alphabet letters")
        for s, a, r in self.transitions:
            if s not in states or r not in states:
                raise InputError(f"transition ({s},{a},{r}) references an undeclared state")
            if a not in letters:
                raise InputError(f"transition letter {a!r} is not in the alphabet")
        if len(set(self.transitions)) != len(self.transitions):
            raise InputError("duplicate transitions")
        if not self.initial <= states or not self.final <= states:
            raise InputError("initial/final states must be declared states")
        for s, _ in self.annotations:
            if s not in states:
                raise InputError(f"annotation references undeclared state {s!r}")

    def annotation_map(self) -> dict[str, OmegaMarking]:
        return dict(self.annotations)

    def successors(self) -> dict[tuple[str, str], set[str]]:
        table: dict[tuple[str, str], set[str]] = {}
        for s, a, r in self.transitions:
            table.setdefault((s, a), set()).add(r)
        return table


def member(a: Nfa, word: Iterable[str]) -> bool:
    """Word membership by set simulation; unknown letters reject."""
    table = a.successors()
    current = set(a.initial)
    for letter in word:
        nxt: set[str] = set()
        for s in current:
            nxt |= table.get((s, letter), set())
        current = nxt
        if not current:
            return False
    return bool(current & a.final)


def _subset_name(subset: frozenset[str]) -> str:
    return "{" + ",".join(sorted(subset)) + "}"


def determinize(a: Nfa, settings: Settings = DEFAULT) -> Nfa:
    """Subset construction; always yields a complete DFA (empty set as sink).
    Raises BudgetExceededError once it holds more than `node_budget` subsets."""
    table = a.successors()
    start = frozenset(a.initial)
    order: list[frozenset[str]] = [start]
    names = {start: _subset_name(start)}  # also the set of subsets seen
    edges: list[Edge] = []
    i = 0
    while i < len(order):
        subset = order[i]
        name = names[subset]
        i += 1
        for letter in a.alphabet:
            target: set[str] = set()
            for s in subset:
                target |= table.get((s, letter), set())
            tgt = frozenset(target)
            if tgt not in names:
                names[tgt] = _subset_name(tgt)
                order.append(tgt)
                if len(order) > settings.node_budget:
                    raise BudgetExceededError(
                        f"subset construction exceeded {settings.node_budget} subsets: "
                        f"reached {len(order)} after expanding {i}")
            edges.append((name, letter, names[tgt]))
    sink = frozenset()
    if sink not in names:
        names[sink] = _subset_name(sink)
        order.append(sink)
        edges.extend((names[sink], letter, names[sink]) for letter in a.alphabet)
    return Nfa(
        states=tuple(names[s] for s in order),
        alphabet=a.alphabet,
        transitions=tuple(edges),
        initial=frozenset({names[start]}),
        final=frozenset(names[s] for s in order if s & a.final),
    )


def is_complete_dfa(a: Nfa) -> bool:
    if len(a.initial) != 1:
        return False
    table = a.successors()
    return all(
        len(table.get((s, letter), ())) == 1 for s in a.states for letter in a.alphabet
    )


def complement(d: Nfa) -> Nfa:
    """Flip the final set; requires a complete DFA."""
    if not is_complete_dfa(d):
        raise InputError("complement requires a complete deterministic automaton")
    return Nfa(
        states=d.states,
        alphabet=d.alphabet,
        transitions=d.transitions,
        initial=d.initial,
        final=frozenset(d.states) - d.final,
        annotations=d.annotations,
        annotation_places=d.annotation_places,
    )


def relabel(a: Nfa, mapping: Mapping[str, str]) -> Nfa:
    """Apply a letter-to-letter map edge-wise; may introduce nondeterminism."""
    missing = [x for x in a.alphabet if x not in mapping]
    if missing:
        raise InputError(f"relabel map misses letters: {missing}")
    alphabet = tuple(sorted({mapping[x] for x in a.alphabet}))
    edges = tuple(sorted({(s, mapping[x], r) for s, x, r in a.transitions}))
    return Nfa(
        states=a.states,
        alphabet=alphabet,
        transitions=edges,
        initial=a.initial,
        final=a.final,
        annotations=a.annotations,
        annotation_places=a.annotation_places,
    )


def widen_alphabet(a: Nfa, letters: Iterable[str]) -> Nfa:
    """Extend the declared alphabet (no transitions added for new letters)."""
    known = set(a.alphabet)
    extra = tuple(x for x in letters if x not in known)
    if not extra:
        return a
    return Nfa(
        states=a.states,
        alphabet=a.alphabet + tuple(sorted(extra)),
        transitions=a.transitions,
        initial=a.initial,
        final=a.final,
        annotations=a.annotations,
        annotation_places=a.annotation_places,
    )


def minimize(d: Nfa) -> Nfa:
    """Unique minimal complete DFA, by partition refinement.

    Unreachable states are dropped first; states are renamed m0, m1, ... in
    breadth-first order from the initial state, making the result canonical
    and minimization idempotent.
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


def net_automaton_intersection_witness(
    net: LabeledPetriNet, a: Nfa, settings: Settings = DEFAULT
) -> tuple[str, ...] | None:
    """A word in L(net) and L(a), or None if the intersection is empty.

    Backward coverability on the synchronized product: the automaton state
    acts as a single control token alongside the net marking, so the search
    runs over (state, marking) pairs with one minimal-marking antichain per
    state.  Saturation starts from every (final state, final marking) pair;
    a pair (initial state, m) with m below the initial marking witnesses a
    word in the intersection, replayed forward from the recorded chain.
    """
    back: dict[tuple[str, str], list[str]] = {}
    for s, letter, r in a.transitions:
        back.setdefault((r, letter), []).append(s)
    chains, parents, _ = saturate(net, sorted(a.final), back, settings)
    for q0 in sorted(a.initial):
        for b in chains.get(q0, ()):
            if all(x <= y for x, y in zip(b, net.initial)):
                return replay_chain(net, parents, (q0, b))
    return None


def net_automaton_empty(net: LabeledPetriNet, a: Nfa) -> bool:
    """Exactly decide L(net) and L(a) being disjoint, via coverability."""
    return net_automaton_intersection_witness(net, a) is None


def to_dot(a: Nfa) -> str:
    """GraphViz rendering for visual inspection."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
    for s in a.states:
        shape = "doublecircle" if s in a.final else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    for s in sorted(a.initial):
        lines.append(f'  hidden -> "{s}";')
    for s, letter, r in a.transitions:
        lines.append(f'  "{s}" -> "{r}" [label="{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
