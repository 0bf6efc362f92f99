"""Exact separator verification (backward witness searches on the candidate
and its backward complement) and bounded enumeration of a net's language."""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Nfa, backward_complement, net_automaton_intersection_witness
from .config import DEFAULT, Settings
from .errors import BudgetExceededError, InputError
from .ideals import IdealAntichain, Marking, ideal_fire
from .petri import LabeledPetriNet, covers

Word = tuple[str, ...]


@dataclass
class SeparatorReport:
    disjointness_ok: bool
    containment_ok: bool
    disjointness_witness: Word | None = None
    containment_witness: Word | None = None

    @property
    def passed(self) -> bool:
        return self.disjointness_ok and self.containment_ok


def verify_separator(
    n1: LabeledPetriNet, n2: LabeledPetriNet, b: Nfa, settings: Settings = DEFAULT
) -> SeparatorReport:
    """Exactly check that L(n1) avoids L(b) and L(n2) is contained in L(b),
    with a witness word for each failure.

    The backward witness searches want few predecessors per state and
    letter: disjointness searches n1 against b, and containment n2 against
    `backward_complement(b)`, which has one, and k+4 states for the
    last-letter candidate whose minimal DFA has over 2^k.  The costly
    direction is a prefix-shaped candidate: the k-th letter from the start
    at k=10 takes 63-91 ms, and 4.5-7.8 ms on its minimal DFA (Python
    3.11.7, 2 vCPUs).  Both searches start from the net's forward cover,
    and are pruned by it or end at it (see `backward.saturate`).
    """
    sigma = set(n1.alphabet) | set(n2.alphabet)
    if set(b.alphabet) != sigma:
        raise InputError(
            f"alphabet mismatch: automaton has {sorted(b.alphabet)}, nets need {sorted(sigma)}"
        )
    co_b = backward_complement(b, settings)
    w1 = net_automaton_intersection_witness(n1, b, settings)
    w2 = net_automaton_intersection_witness(n2, co_b, settings)
    return SeparatorReport(
        disjointness_ok=w1 is None,
        containment_ok=w2 is None,
        disjointness_witness=w1,
        containment_witness=w2,
    )


def bounded_language(
    net: LabeledPetriNet, maxlen: int, settings: Settings = DEFAULT
) -> tuple[Word, ...]:
    """All accepted words of length at most `maxlen`, by exhaustive search.

    Per word only the maximal reached markings are kept; this is exact for
    coverability acceptance since both acceptance and future behavior are
    upward compatible.  Exceeding the node budget raises instead of
    silently truncating.
    """
    if maxlen < 0:
        raise InputError(f"maxlen {maxlen} is negative")
    if maxlen > settings.sample_maxlen_cap:
        raise InputError(
            f"maxlen {maxlen} exceeds the configured cap {settings.sample_maxlen_cap}"
        )
    frontier: dict[Word, list[Marking]] = {(): [net.initial]}
    accepted: set[Word] = set()
    nodes = 1
    for length in range(maxlen + 1):
        for word, markings in frontier.items():
            if any(covers(m, net.final) for m in markings):
                accepted.add(word)
        if length == maxlen:
            break
        nxt: dict[Word, list[Marking]] = {}
        for word, markings in frontier.items():
            for t in net.transitions:
                reached = [r for m in markings if (r := ideal_fire(m, t.pre, t.post)) is not None]
                if not reached:
                    continue
                key = word + (t.label,)
                nxt.setdefault(key, []).extend(reached)
        frontier = {}
        for word, markings in nxt.items():
            kept = list(IdealAntichain(markings))  # the maximal ones, first seen first
            nodes += len(kept)
            if nodes > settings.node_budget:
                raise BudgetExceededError(
                    f"bounded language exploration exceeded {settings.node_budget} nodes "
                    f"at word length {length + 1}, {len(nxt)} words in the frontier"
                )
            frontier[word] = kept
    return tuple(sorted(accepted, key=lambda w: (len(w), w)))
