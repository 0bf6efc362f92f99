"""Finite-automaton toolbox: determinization, complement, relabeling,
membership, minimization, and the exact net-vs-automaton emptiness check.

States are opaque strings; a state may carry an omega-marking annotation
(used by the separator construction).  All constructions are deterministic
so serialized artifacts are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .backward import replay_chain, saturate
from .config import DEFAULT, Settings
from .errors import BudgetExceededError, InputError
from .ideals import OmegaMarking, _derived, check_omega_marking, omega_leq
from .petri import LabeledPetriNet, _escape

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
        if len(set(self.annotation_places)) != len(self.annotation_places):
            raise InputError("duplicate annotation places")
        annotated: set[str] = set()
        for s, u in self.annotations:
            if s not in states:
                raise InputError(f"annotation references undeclared state {s!r}")
            if s in annotated:
                raise InputError(f"state {s!r} is annotated twice")
            annotated.add(s)
            check_omega_marking(u, len(self.annotation_places))

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
    """The state "{s1,s2}", each name escaped by `petri._escape` and "" written "\\e"."""
    return "{" + ",".join(_escape(s, ",") or "\\e" for s in sorted(subset)) + "}"


def _subset_construction(
    start: frozenset[str], step: Callable, alphabet: tuple[str, ...], settings: Settings
) -> tuple[dict[frozenset[str], str], list[Edge]]:
    """Breadth-first closure of `start` under `step(subset, letter)`: the
    subsets' names in order, and one move (name, letter, step's name) per
    letter.  Raises BudgetExceededError past `node_budget` subsets."""
    order: list[frozenset[str]] = [start]
    names = {start: _subset_name(start)}  # also the set of subsets seen
    moves: list[Edge] = []
    i = 0
    while i < len(order):
        subset = order[i]
        name = names[subset]
        i += 1
        for letter in alphabet:
            tgt = step(subset, letter)
            if tgt not in names:
                names[tgt] = _subset_name(tgt)
                order.append(tgt)
                if len(order) > settings.node_budget:
                    raise BudgetExceededError(
                        f"subset construction exceeded {settings.node_budget} subsets: "
                        f"reached {len(order)} after expanding {i}")
            moves.append((name, letter, names[tgt]))
    return names, moves


def determinize(a: Nfa, settings: Settings = DEFAULT) -> Nfa:
    """Subset construction: a complete DFA of the subsets reachable from the
    initial one (the empty one only if reached), one move per letter each.
    Raises BudgetExceededError once it holds more than `node_budget` subsets."""
    table = a.successors()

    def post(subset: frozenset[str], letter: str) -> frozenset[str]:
        return frozenset().union(*[table.get((s, letter), ()) for s in subset])

    start = frozenset(a.initial)
    names, edges = _subset_construction(start, post, a.alphabet, settings)
    return _derived(
        Nfa,
        states=tuple(names.values()),
        alphabet=a.alphabet,
        transitions=tuple(edges),
        initial=frozenset({names[start]}),
        final=frozenset(name for s, name in names.items() if s & a.final),
    )


def backward_complement(a: Nfa, settings: Settings = DEFAULT) -> Nfa:
    """Co-deterministic automaton for the complement of L(a): the subset
    construction run backward from the non-final states by controllable
    predecessors, {q : post(q, x) ⊆ S} for a letter x and subset S (De Wulf,
    Doyen, Henzinger & Raskin, CAV 2006).  Edges run from that set to S, and
    the initial states hold a.initial.  The states are as many as the
    reversed language's DFA has; the budget is `determinize`'s."""
    table = a.successors()

    def cpre(subset: frozenset[str], letter: str) -> frozenset[str]:
        return frozenset(q for q in a.states if table.get((q, letter), frozenset()) <= subset)

    start = frozenset(a.states) - a.final
    names, moves = _subset_construction(start, cpre, a.alphabet, settings)
    return _derived(
        Nfa,
        states=tuple(names.values()),
        alphabet=a.alphabet,
        transitions=tuple((p, letter, s) for s, letter, p in moves),
        initial=frozenset(name for s, name in names.items() if a.initial <= s),
        final=frozenset({names[start]}),
    )


def is_complete_dfa(a: Nfa) -> bool:
    """One initial state and exactly one edge per (state, letter) pair.
    `Nfa` already rejects undeclared states and letters and duplicate
    edges, so it is enough that the distinct pairs number as many as the
    edges and as |states|·|alphabet|."""
    distinct = len({(s, letter) for s, letter, _ in a.transitions})
    return len(a.initial) == 1 and distinct == len(a.transitions) == len(a.states) * len(a.alphabet)


def complement(d: Nfa) -> Nfa:
    """Flip the final set; requires a complete DFA."""
    if not is_complete_dfa(d):
        raise InputError("complement requires a complete deterministic automaton")
    return _derived(Nfa, d, final=frozenset(d.states) - d.final)


def relabel(a: Nfa, mapping: Mapping[str, str]) -> Nfa:
    """Apply a letter-to-letter map edge-wise; may introduce nondeterminism."""
    missing = [x for x in a.alphabet if x not in mapping]
    if missing:
        raise InputError(f"relabel map misses letters: {missing}")
    alphabet = tuple(sorted({mapping[x] for x in a.alphabet}))
    edges = tuple(sorted({(s, mapping[x], r) for s, x, r in a.transitions}))
    return _derived(Nfa, a, alphabet=alphabet, transitions=edges)


def widen_alphabet(a: Nfa, letters: Iterable[str]) -> Nfa:
    """Extend the declared alphabet by the new letters, sorted (no transitions added for them)."""
    extra = set(letters).difference(a.alphabet)
    if not extra:
        return a
    return _derived(Nfa, a, alphabet=a.alphabet + tuple(sorted(extra)))


def minimize(d: Nfa) -> Nfa:
    """Unique minimal complete DFA, by partition refinement.

    Unreachable states are dropped first; states are renamed m0, m1, ... in
    breadth-first order from the initial state, making the result canonical
    and minimization idempotent.  Refinement numbers the blocks by their
    first state in the breadth-first state order, which is the quotient's
    own breadth-first order: blocks are a congruence, so a state's
    successors lie in the same blocks as those of its block's first state,
    which was expanded before it, and only first states find new blocks.
    """
    if not is_complete_dfa(d):
        raise InputError("minimize requires a complete deterministic automaton")
    table = {(s, a): r for s, a, r in d.transitions}
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
    # the last pass numbered the blocks in the order of their first states
    firsts: dict[int, str] = {}
    for s in reachable:
        firsts.setdefault(block[s], s)
    return _derived(
        Nfa,
        states=tuple(f"m{b}" for b in firsts),
        alphabet=d.alphabet,
        transitions=tuple(
            (f"m{b}", a, f"m{block[table[(s, a)]]}") for b, s in firsts.items() for a in d.alphabet
        ),
        initial=frozenset({"m0"}),
        final=frozenset(f"m{b}" for b, s in firsts.items() if s in d.final),
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
    The search computes the net's forward cover first: it ends at a cover
    that misses the final marking, or is pruned by one that holds it.
    """
    back: dict[tuple[str, str], list[str]] = {}
    for s, letter, r in a.transitions:
        back.setdefault((r, letter), []).append(s)
    chains, parents, _ = saturate(net, sorted(a.final), back, settings, "witness")
    for q0 in sorted(a.initial):
        for b in chains.get(q0, ()):
            if omega_leq(b, net.initial):
                return replay_chain(net, parents, (q0, b))
    return None


def _dot_str(x: str) -> str:
    return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: Nfa) -> str:
    """GraphViz rendering for visual inspection.  State i is node n<i>,
    labeled with its name; names and letters are quoted and escaped."""
    node = {s: f"n{i}" for i, s in enumerate(a.states)}
    lines = ["digraph automaton {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
    for s in a.states:
        shape = "doublecircle" if s in a.final else "circle"
        lines.append(f"  {node[s]} [shape={shape}, label={_dot_str(s)}];")
    for s in sorted(a.initial):
        lines.append(f"  hidden -> {node[s]};")
    for s, letter, r in a.transitions:
        lines.append(f"  {node[s]} -> {node[r]} [label={_dot_str(letter)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
