"""Inductive invariants as ideal decompositions, plus the size-bound checks.

The greatest inductive invariant of a net with empty language is the
complement of the backward-reachable cone; its ideal decomposition is
obtained exactly via `complement_upset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backward import BackwardResult, prestar_basis
from .config import DEFAULT, Settings
from .errors import InputError
from .ideals import (
    DownSet,
    IdealAntichain,
    OmegaMarking,
    UpSet,
    complement_upset,
    ideal_fire,
    member_down,
    omega_leq,
    vector_str,
)
from .petri import LabeledPetriNet


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
        """True iff base**exponent >= v, without materializing huge powers."""
        if v <= 0:
            return True
        if self.base <= 1 or self.exponent == 0:
            return (1 if self.exponent == 0 else self.base) >= v
        acc = 1
        steps = 0
        while acc < v and steps < self.exponent:
            acc *= self.base
            steps += 1
        return acc >= v


@dataclass
class InvariantCertificate:
    down: DownSet
    source_basis: UpSet
    bound: BackwardBound
    bound_ideal_count: int


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


def backward_bound(net: LabeledPetriNet, constant: int = 4) -> BackwardBound:
    """Upper bound on basis cardinality and norms of the backward saturation.

    The hidden constant in the doubly-exponential exponent is not
    recoverable exactly; it is exposed as `constant` (default 4) and the
    bound is used as a sanity assertion only.
    """
    t = len(net.transitions)
    if t == 0:
        return BackwardBound(base=0, exponent=1)
    p = len(net.places)
    flow_norm = max((c for tr in net.transitions for c in tr.pre + tr.post), default=0)
    base = t * (flow_norm + max(net.initial, default=0) + max(net.final, default=0) + 2)
    exponent = 2 ** (p * ((p + 1).bit_length() - 1) + constant)
    return BackwardBound(base=base, exponent=exponent)


def invariant_from_backward(
    net: LabeledPetriNet,
    settings: Settings = DEFAULT,
    backward: BackwardResult | None = None,
) -> InvariantCertificate:
    """Greatest inductive invariant, as the complement of the backward cone.

    Requires the net's language to be empty; otherwise no invariant exists.
    The saturation and the complement run within `settings.node_budget`,
    and the bound uses `settings.bound_constant`.
    """
    if backward is None:
        backward = prestar_basis(net, settings)
    if backward.coverable:
        raise InputError("net is coverable: no inductive invariant exists")
    down = complement_upset(backward.basis, settings)
    return InvariantCertificate(
        down=down,
        source_basis=backward.basis,
        bound=backward_bound(net, settings.bound_constant),
        bound_ideal_count=(backward.basis.norm() + 2) ** net.dimension,
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
    containers = IdealAntichain(x.ideals)
    for u in x.ideals:
        for t in net.transitions:
            s = ideal_fire(u, t.pre, t.post)
            if s is None:
                continue
            targets = sorted(containers.below(s))  # in the order of x.ideals
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
