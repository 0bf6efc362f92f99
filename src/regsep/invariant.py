"""Inductive invariants as ideal decompositions, plus the size-bound checks.

The greatest inductive invariant of a net with empty language is the
complement of the backward-reachable cone; its ideal decomposition is
obtained exactly via `complement_upset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backward import BackwardResult
from .config import DEFAULT, Settings
from .errors import InputError
from .ideals import (
    DownSet,
    IdealIndex,
    OmegaMarking,
    UpSet,
    complement_upset,
    ideal_fire,
    member_down,
    omega_leq,
    vector_str,
)
from .petri import LabeledPetriNet, net_size

# the hidden constant in the exponent of the bound on the backward basis
BOUND_CONSTANT = 4


@dataclass(frozen=True)
class BackwardBound:
    """The basis bound as base**exponent, kept factored.

    Materializing the power is feasible only for very small nets (the
    exponent is itself exponential in the place count), so comparisons go
    through `at_least`, which caps the computation at the compared value.
    """

    base: int
    exponent: int

    def at_least(self, v: int) -> bool:
        """True iff base**exponent >= v, without materializing huge powers:
        for base >= 2 an exponent past v's bit length cannot change the answer."""
        return self.base ** min(self.exponent, v.bit_length()) >= v


@dataclass
class InvariantCertificate:
    down: DownSet
    source_basis: UpSet
    bound: BackwardBound

    @property
    def bound_ideal_count(self) -> int:
        """Bound on the number of invariant ideals, (basis norm + 2) ** dimension."""
        return (self.source_basis.norm() + 2) ** self.source_basis.dimension


Successors = dict[tuple[OmegaMarking, str], list[OmegaMarking]]


@dataclass
class InvariantReport:
    initial_ok: bool
    final_ok: bool
    closed_ok: bool
    failures: list[str] = field(default_factory=list)
    # (ideal, transition name) -> the ideals containing the ideal's successor,
    # for every step enabled on the ideal; an empty list is an escape
    successors: Successors = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return self.initial_ok and self.final_ok and self.closed_ok


def backward_bound(net: LabeledPetriNet) -> BackwardBound:
    """Upper bound on basis cardinality and norms of the backward saturation.

    The doubly-exponential estimate of Bozzelli & Ganty: base
    |T| * (flow norm + initial norm + final norm + 2), exponent
    2**(|P| * floor(log2(|P| + 1)) + BOUND_CONSTANT).  The hidden constant
    is not recoverable exactly, so it is fixed at 4 and the bound serves as
    a sanity assertion only.
    """
    size = net_size(net)
    if size.transition_count == 0:
        return BackwardBound(base=0, exponent=1)
    p = size.place_count
    base = size.transition_count * (size.flow_norm + size.initial_norm + size.final_norm + 2)
    exponent = 2 ** (p * ((p + 1).bit_length() - 1) + BOUND_CONSTANT)
    return BackwardBound(base=base, exponent=exponent)


def invariant_from_backward(
    net: LabeledPetriNet, backward: BackwardResult, settings: Settings = DEFAULT
) -> InvariantCertificate:
    """Greatest inductive invariant, as the complement of the backward cone.

    `backward` is the saturation of `net`.  It must find the net's
    language empty; otherwise no invariant exists.  The complement runs
    within `settings.node_budget`.
    """
    if backward.coverable:
        raise InputError("net is coverable: no inductive invariant exists")
    return InvariantCertificate(
        down=complement_upset(backward.basis, settings),
        source_basis=backward.basis,
        bound=backward_bound(net),
    )


def check_invariant(net: LabeledPetriNet, x: DownSet) -> InvariantReport:
    """Verify the three defining properties of an inductive invariant.

    (i) the initial marking belongs to the set, (ii) no ideal meets the
    final cone, (iii) every ideal successor stays below some ideal.  The
    successor relation found for (iii) is kept in the report's
    `successors`; the core automaton takes its edges from it.
    """
    if x.dimension != net.dimension:
        raise InputError(f"dimension mismatch: {x.dimension} vs {net.dimension}")
    failures: list[str] = []
    initial_ok = member_down(net.initial, x)
    if not initial_ok:
        failures.append(f"initial marking {net.initial} is not in the invariant")
    final_ok = True
    for u in x.ideals:
        # the ideal meets the final cone iff it dominates the final marking
        if omega_leq(net.final, u):
            final_ok = False
            failures.append(f"ideal {vector_str(u)} meets the final cone")
    closed_ok = True
    successors: Successors = {}
    containers = IdealIndex(x.ideals)  # `containing` keeps the order of x.ideals
    for u in x.ideals:
        for t in net.transitions:
            s = ideal_fire(u, t.pre, t.post)
            if s is None:
                continue
            targets = containers.containing(s)
            successors[u, t.name] = targets
            if not targets:
                closed_ok = False
                failures.append(
                    f"successor {vector_str(s)} of {vector_str(u)} under {t.name} escapes"
                )
    return InvariantReport(
        initial_ok=initial_ok, final_ok=final_ok, closed_ok=closed_ok, failures=failures,
        successors=successors,
    )
