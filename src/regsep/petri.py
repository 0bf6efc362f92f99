"""Labeled Petri nets with coverability acceptance.

A word is accepted iff some firing sequence over it ends in a marking that
covers the final marking componentwise.  Epsilon labels are not allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InputError
from .ideals import Marking, check_marking, ideal_fire, omega_leq


def ceil_log2(x: int) -> int:
    """Ceiling of log2(x) for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 requires a positive argument")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class Transition:
    name: str
    label: str
    pre: Marking
    post: Marking


@dataclass(frozen=True)
class LabeledPetriNet:
    places: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[Transition, ...]
    initial: Marking
    final: Marking

    def __post_init__(self) -> None:
        if len(set(self.places)) != len(self.places):
            raise InputError("duplicate place names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("duplicate alphabet letters")
        if "" in self.alphabet:
            raise InputError("epsilon labels are not allowed")
        d = len(self.places)
        check_marking(self.initial, d)
        check_marking(self.final, d)
        names = set()
        letters = set(self.alphabet)
        for t in self.transitions:
            if t.name in names:
                raise InputError(f"duplicate transition name {t.name!r}")
            names.add(t.name)
            if t.label not in letters:
                raise InputError(f"transition {t.name!r} has label {t.label!r} outside the alphabet")
            check_marking(t.pre, d)
            check_marking(t.post, d)
        object.__setattr__(self, "_by_name", {t.name: t for t in self.transitions})

    @property
    def dimension(self) -> int:
        return len(self.places)

    def transition(self, name: str) -> Transition:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"unknown transition {name!r}") from None


@dataclass(frozen=True)
class NetSizeReport:
    size: int
    flow_norm: int
    initial_norm: int
    final_norm: int
    place_count: int
    transition_count: int


def covers(m: Marking, mf: Marking) -> bool:
    """Componentwise m >= mf."""
    return omega_leq(mf, m)


def fire(net: LabeledPetriNet, m: Marking, t: str) -> Marking | None:
    """Fire transition `t` at `m`; None when disabled."""
    check_marking(m, net.dimension)
    tr = net.transition(t)
    return ideal_fire(m, tr.pre, tr.post)


def product(n1: LabeledPetriNet, n2: LabeledPetriNet) -> LabeledPetriNet:
    """Synchronized product: one transition per equal-label pair.

    The language of the product is the intersection of the languages.
    Colliding place names are disambiguated by prefixing with "L." / "R.".
    """
    if set(n1.places) & set(n2.places):
        places1 = tuple("L." + p for p in n1.places)
        places2 = tuple("R." + p for p in n2.places)
    else:
        places1, places2 = n1.places, n2.places
    places = places1 + places2
    known = set(n1.alphabet)
    alphabet = n1.alphabet + tuple(a for a in n2.alphabet if a not in known)
    transitions = []
    for t1 in n1.transitions:
        for t2 in n2.transitions:
            if t1.label != t2.label:
                continue
            transitions.append(
                Transition(
                    name=f"({t1.name},{t2.name})",
                    label=t1.label,
                    pre=t1.pre + t2.pre,
                    post=t1.post + t2.post,
                )
            )
    return LabeledPetriNet(
        places=places,
        alphabet=alphabet,
        transitions=tuple(transitions),
        initial=n1.initial + n2.initial,
        final=n1.final + n2.final,
    )


def identity_labeled(n: LabeledPetriNet) -> LabeledPetriNet:
    """Relabel every transition by its own name; the alphabet becomes the name list."""
    return replace(
        n,
        alphabet=tuple(t.name for t in n.transitions),
        transitions=tuple(replace(t, label=t.name) for t in n.transitions),
    )


def label_expand(n1: LabeledPetriNet, n2: LabeledPetriNet) -> LabeledPetriNet:
    """Expand n1 against n2's transition names.

    For each transition t1 of n1 with label a and each transition t of n2
    with the same label, emit a copy of t1 named "t1^t" and labeled t.  The
    resulting net is over the alphabet of n2's transition names.
    """
    return replace(
        n1,
        alphabet=tuple(t.name for t in n2.transitions),
        transitions=tuple(
            replace(t1, name=f"{t1.name}^{t.name}", label=t.name)
            for t1 in n1.transitions
            for t in n2.transitions
            if t1.label == t.label
        ),
    )


def injectively_labeled(n: LabeledPetriNet) -> bool:
    labels = [t.label for t in n.transitions]
    return len(set(labels)) == len(labels)


def _marking_size(norm: int, place_count: int) -> int:
    return place_count * (1 + ceil_log2(1 + norm))


def net_size(n: LabeledPetriNet) -> NetSizeReport:
    """Binary-encoded size metric of the net."""
    flow_norm = max((c for t in n.transitions for c in t.pre + t.post), default=0)
    initial_norm = max(n.initial, default=0)
    final_norm = max(n.final, default=0)
    p, t = len(n.places), len(n.transitions)
    size = (
        p * t * (1 + ceil_log2(1 + flow_norm))
        + _marking_size(initial_norm, p)
        + _marking_size(final_norm, p)
    )
    return NetSizeReport(
        size=size,
        flow_norm=flow_norm,
        initial_norm=initial_norm,
        final_norm=final_norm,
        place_count=p,
        transition_count=t,
    )
