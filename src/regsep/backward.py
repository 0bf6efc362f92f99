"""Backward coverability: predecessor bases, saturation, and disjointness.

Saturation starts from the final marking and repeatedly adds minimal
predecessors, keeping the basis a canonical antichain at every step.
Termination is guaranteed by Dickson's lemma.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Mapping, TypeVar

from .ideals import Marking, UpSet, canonicalize_up, check_marking, member_up
from .petri import LabeledPetriNet, covers, fire, product

# maps each discovered basis vector to the (transition, target vector) pair
# that generated it; None marks the final-marking root
ParentMap = dict[Marking, "tuple[str, Marking] | None"]
Node = TypeVar("Node", bound=Hashable)


@dataclass
class BackwardResult:
    basis: UpSet
    iterations: int
    coverable: bool
    parents: ParentMap = field(repr=False, default_factory=dict)


def pred_basis(net: LabeledPetriNet, v: Marking, t: str) -> Marking:
    """Minimal marking that enables `t` and whose t-successor dominates `v`."""
    check_marking(v, net.dimension)
    tr = net.transition(t)
    return tuple(
        max(x - q + p, p) for x, p, q in zip(v, tr.pre, tr.post)
    )


def prestar_basis(net: LabeledPetriNet) -> BackwardResult:
    """Saturate the minimal basis of the markings that can cover the final one.

    FIFO worklist over basis elements; dominated newcomers are dropped and
    dominated incumbents evicted, so the basis stays an antichain.
    """
    root = net.final
    basis: list[Marking] = [root]
    parents: ParentMap = {root: None}
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
    canonical = canonicalize_up(net.dimension, basis)
    return BackwardResult(
        basis=canonical,
        iterations=iterations,
        coverable=member_up(net.initial, canonical),
        parents=parents,
    )


def coverable(net: LabeledPetriNet) -> bool:
    """True iff some firing sequence from the initial marking covers the final one."""
    return prestar_basis(net).coverable


def disjoint(n1: LabeledPetriNet, n2: LabeledPetriNet) -> bool:
    """True iff the coverability languages of the two nets do not intersect."""
    return not coverable(product(n1, n2))


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


def coverability_witness(
    net: LabeledPetriNet, result: BackwardResult | None = None
) -> tuple[str, ...] | None:
    """A word labeling a covering run from the initial marking, or None.

    Replays the backward chain forward: each basis element records the
    transition that maps its upward cone into the cone of its parent.
    """
    if result is None:
        result = prestar_basis(net)
    if not result.coverable:
        return None
    start = next(b for b in result.basis.basis if all(x <= y for x, y in zip(b, net.initial)))
    return replay_chain(net, result.parents, start)
