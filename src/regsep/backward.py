"""Backward coverability: predecessor bases, saturation, and disjointness.

Saturation starts from the final marking and repeatedly adds minimal
predecessors, keeping the basis a canonical antichain at every step.
Termination is guaranteed by Dickson's lemma.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from operator import add, le, sub
from typing import Hashable, Literal, Mapping, Sequence, TypeVar

from .config import DEFAULT, Settings
from .errors import BudgetExceededError
from .ideals import OMEGA, Antichain, IdealAntichain, IdealIndex, Marking, UpSet, check_marking
from .ideals import ideal_fire, member_up, omega_leq
from .petri import LabeledPetriNet, covers, fire, product

Node = TypeVar("Node", bound=Hashable)


@dataclass
class BackwardResult:
    basis: UpSet
    iterations: int
    coverable: bool


def _pred(v: Marking, pre: Marking, post: Marking) -> Marking:
    return tuple(map(max, map(add, map(sub, v, post), pre), pre))  # max(x - q + p, p)


def pred_basis(net: LabeledPetriNet, v: Marking, t: str) -> Marking:
    """Minimal marking that enables `t` and whose t-successor dominates `v`."""
    check_marking(v, net.dimension)
    tr = net.transition(t)
    return _pred(v, tr.pre, tr.post)


# the least limit of a pruned search's first cover (see `saturate`)
PRUNE_AFTER = 64


def forward_cover(net: LabeledPetriNet, limit: int) -> IdealAntichain | None:
    """The maximal ideals of the downward closure of the reachable set, by a
    FIFO Karp-Miller exploration (JCSS 1969): a successor above an ancestor
    on its path gets OMEGA where it exceeds it, and one below a kept label
    is a leaf.  Returns None once more than `limit` nodes are kept, the one
    bound, which `saturate` caps at its budget.  Transitions with the same
    pre and post vectors give one step, and a step whose pre needs a place
    where u is 0 is skipped before it fires."""
    steps = {(t.pre, t.post): Antichain._mask(t.pre) for t in net.transitions}  # first-seen order
    kept = IdealAntichain([net.initial])
    queue = deque([(net.initial, None)])  # (label, parent node)
    nodes = 1
    while queue:
        node = u, _ = queue.popleft()
        if u not in kept:
            continue  # evicted while waiting
        support = Antichain._mask(u)
        for (pre, post), mask in steps.items():
            if mask & ~support or (y := ideal_fire(u, pre, post)) is None:
                continue  # disabled on u
            up = node
            while up is not None:
                a, up = up
                if a != y and all(map(le, a, y)):  # an equal ancestor accelerates nothing
                    y = tuple(map(lambda x, z: z if x == z else OMEGA, a, y))
            if kept.add(y):
                nodes += 1
                if nodes > limit:
                    return None
                queue.append((y, node))
    return kept


def saturate(
    net: LabeledPetriNet,
    roots: Sequence[Hashable],
    back: Mapping[tuple[Hashable, str], Sequence[Hashable]],
    settings: Settings = DEFAULT,
    _search: Literal["witness", "decision"] | None = None,
) -> tuple[defaultdict[Hashable, Antichain], dict, int] | None:
    """FIFO backward saturation over (control state, marking) nodes, from
    the final marking at every root state.  Expanding (q, v), each transition
    t offers v's minimal t-predecessor to the antichain of every state in
    `back[q, label of t]`.  Returns the antichain per state, the map from each
    kept node to the (transition, node) pair that generated it (None at a
    root), and the number of nodes expanded.  Each expansion computes v's
    predecessors once, each saturation one move list per control state;
    transitions with the same pre and post vectors share one predecessor.

    An offer made before is answered from memory: a kept one is a key of
    `parents`, a rejected one is in `refused`.  Either way `add` would now
    refuse it, because elements leave an antichain only when `add` evicts
    them for a smaller one, never through `drop`.

    Given a `_search`, the saturation is pruned, all on one schedule: before
    its first expansion it computes `forward_cover(net, limit)`, limited to
    the nodes it keeps but at least `PRUNE_AFTER` and at most the budget, so
    the saturation holds the search's one budget; a cover past its limit is
    retried once four times the limit are kept.  A complete cover holds the
    final marking iff it is coverable: it holds every reachable marking, and
    Karp-Miller acceleration adds none that no run covers.  A cover that
    holds it prunes a "witness" `_search`: indexed as an `IdealIndex`, it
    is asked once per predecessor, and no node outside it is kept from then
    on, nor expanded, since such a node has only predecessors outside it
    too.  The pruning is exact however late it starts: markings below a
    coverable one are coverable and uncoverable ones have only uncoverable
    predecessors, so the coverable nodes, their order and their parents are
    the unpruned run's.  A "decision" search (one state only) returns None.  A cover
    that misses it ends the search, since no kept node is coverable."""
    chains: defaultdict[Hashable, Antichain] = defaultdict(Antichain)
    parents: dict = {(q, net.final): None for q in roots}
    for q in roots:
        chains[q].add(net.final)
    cover = None
    retry = 0 if _search else None  # kept nodes at which the next cover is computed
    refused: set = set()  # without this record of offers, last-letter bases took 1.5-1.8x as long
    slots: dict = {}  # (pre, post) -> its index in a row; one per transition was 10% slower
    for t in net.transitions:
        slots.setdefault((t.pre, t.post), len(slots))
    moves: dict = {}  # state -> (slot, transition, targets), nonempty targets only
    queue = deque(parents)
    iterations = 0
    while queue:
        if retry is not None and len(parents) >= retry:
            limit = min(max(len(parents), PRUNE_AFTER), settings.node_budget)
            ideals = forward_cover(net, limit)
            retry = None if ideals is not None else 4 * limit
            if ideals is not None:
                if not any(omega_leq(net.final, u) for u in ideals):
                    break  # the final marking is not coverable
                if _search == "decision":
                    return None  # the final marking is coverable
                cover = IdealIndex(ideals)
        node = q, v = queue.popleft()
        if v not in chains[q] or cover is not None and not cover.mask(v):
            continue  # evicted while waiting, or outside the cover
        iterations += 1
        steps = moves.get(q)
        if steps is None:
            steps = moves[q] = [
                (slots[t.pre, t.post], t, targets)
                for t in net.transitions
                if (targets := back.get((q, t.label)))
            ]
        row = [None] * len(slots)  # fresh per expansion, so the cover prunes every predecessor
        for i, t, targets in steps:
            m = row[i]
            if m is None:
                m = _pred(v, t.pre, t.post)
                m = row[i] = m if cover is None or cover.mask(m) else False
            if m is False:
                continue  # outside the cover
            for s in targets:
                offer = s, m
                if offer in parents or offer in refused:
                    continue  # offered before
                if not chains[s].add(m):
                    refused.add(offer)  # dominated by an incumbent
                    continue
                parents[offer] = t.name, node
                queue.append(offer)
                if len(parents) > settings.node_budget:
                    raise BudgetExceededError(
                        f"saturation kept over {settings.node_budget} nodes: {iterations} "
                        f"iterations, antichain size {sum(map(len, chains.values()))}")
    return chains, parents, iterations


def _one_state(net: LabeledPetriNet) -> dict:
    """`saturate`'s `back` map for one state that every transition keeps."""
    return {(None, t.label): (None,) for t in net.transitions}


def prestar_basis(net: LabeledPetriNet, settings: Settings = DEFAULT) -> BackwardResult:
    """Saturate the minimal basis of the markings that can cover the final
    one: the one-state case of `saturate`, unpruned, so every node is
    expanded and no cover is computed."""
    chains, _, iterations = saturate(net, (None,), _one_state(net), settings)
    basis = UpSet(net.dimension, tuple(sorted(chains[None])))
    return BackwardResult(basis, iterations, member_up(net.initial, basis))


def coverable(net: LabeledPetriNet, settings: Settings = DEFAULT) -> bool:
    """True iff some firing sequence from the initial marking covers the final
    one: the one-state case of `saturate`, answered by the first complete
    forward cover, which comes before any node is expanded (see there).
    `separate` and the `invariant` command ask this first and saturate
    `prestar_basis` only when it is False."""
    saturation = saturate(net, (None,), _one_state(net), settings, "decision")
    return saturation is None or any(omega_leq(b, net.initial) for b in saturation[0][None])


def disjoint(n1: LabeledPetriNet, n2: LabeledPetriNet, settings: Settings = DEFAULT) -> bool:
    """True iff the coverability languages of the two nets do not intersect:
    `coverable` on their product."""
    return not coverable(product(n1, n2), settings)


def replay_chain(
    net: LabeledPetriNet,
    parents: Mapping[Node, "tuple[str, Node] | None"],
    node: Node,
) -> tuple[str, ...]:
    """Fire the backward chain from `node` to its root forward from the
    initial marking, and return the word it reads.

    `parents` maps each node to the (transition, parent node) pair that
    generated it, None at a root.  Nodes are opaque here: plain markings
    and (state, marking) pairs both work.  Each link fires from a marking
    dominating its recorded minimum, so enabledness is preserved and the
    run ends covering the final marking; a chain that breaks either
    property raises RuntimeError.
    """
    word: list[str] = []
    m = net.initial
    while parents[node] is not None:
        tname, node = parents[node]  # type: ignore[misc]
        m2 = fire(net, m, tname)
        if m2 is None:
            raise RuntimeError("backward chain must stay enabled")
        word.append(net.transition(tname).label)
        m = m2
    if not covers(m, net.final):
        raise RuntimeError("backward chain must end covering the final marking")
    return tuple(word)
