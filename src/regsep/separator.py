"""Construction of regular separators from inductive invariants.

Given disjoint nets n1 and n2, the pipeline makes the second net
deterministic by relabeling each transition with its own name, expands the
first net's labels accordingly, computes the greatest inductive invariant
of their product from the backward basis, and reads off an automaton whose
states are the invariant's maximal ideals.

The identity-labeled net is only partially deterministic: a letter may have
no successor.  We complete it with an implicit bottom configuration that
absorbs every step; in the automaton this shows up as the single absorbing
"dead" state (second component at bottom, first component unbounded), which
is final.  Without it, words the first net can read but the second cannot
would escape the separator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .automata import Nfa, complement, determinize, minimize, relabel, widen_alphabet
from .backward import coverable, prestar_basis
from .config import DEFAULT, Settings
from .errors import NotDisjointError
from .ideals import UpSet, omega_leq
from .invariant import InvariantCertificate, check_invariant, invariant_from_backward
from .petri import LabeledPetriNet, identity_labeled, injectively_labeled, label_expand, product

log = logging.getLogger(__name__)

DEAD_STATE = "dead"


@dataclass
class SeparatorBundle:
    core: Nfa  # over the second net's transition names
    complement_dfa: Nfa  # complete DFA, complement of `core`
    separator: Nfa  # over the shared alphabet; contains L(n2), avoids L(n1)
    certificate: InvariantCertificate
    w: LabeledPetriNet  # n1 expanded against n2's transition names
    w_det: LabeledPetriNet  # n2 labeled by its own transition names

    @property
    def basis(self) -> UpSet:
        """Backward basis of product(w, w_det)."""
        return self.certificate.source_basis


def build_core_automaton(
    w: LabeledPetriNet, w_det: LabeledPetriNet, cert: InvariantCertificate, prod: LabeledPetriNet
) -> Nfa:
    """Automaton whose states are the invariant ideals of `prod` = product(w, w_det).

    `w_det` must be injectively labeled.  A state is initial if it
    dominates the joint initial marking and final if its w-side covers w's
    final marking.  The edges are the successor relation that
    `check_invariant` records while it checks closedness: a joint step from
    an ideal leads to every ideal that contains its successor, so edges
    over-approximate joint steps existentially.  Steps that w can take
    while w_det cannot fall into the absorbing dead state, which is final.
    """
    if not injectively_labeled(w_det):
        raise ValueError("the deterministic component must be injectively labeled")
    report = check_invariant(prod, cert.down)
    if not report.passed:
        raise ValueError(f"certificate does not pass the invariant check: {report.failures}")
    n1_dim = len(w.places)
    ideals = cert.down.ideals
    names = {u: f"i{k}" for k, u in enumerate(ideals)}
    states = tuple(names[u] for u in ideals) + (DEAD_STATE,)
    initial = frozenset(names[u] for u in ideals if omega_leq(prod.initial, u))
    final = {DEAD_STATE} | {names[u] for u in ideals if omega_leq(w.final, u[:n1_dim])}
    edges: set[tuple[str, str, str]] = set()
    for u in ideals:
        for pt in prod.transitions:
            targets = report.successors.get((u, pt.name))
            if targets is not None:
                edges.update((names[u], pt.label, names[r]) for r in targets)
            elif omega_leq(pt.pre[:n1_dim], u[:n1_dim]):
                # w can step here, w_det cannot
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


def separate(
    n1: LabeledPetriNet,
    n2: LabeledPetriNet,
    settings: Settings = DEFAULT,
) -> SeparatorBundle:
    """Produce a verified-by-construction separator bundle.

    The returned separator contains L(n2) and is disjoint from L(n1).
    Raises NotDisjointError when the languages overlap, which `coverable`
    decides on the product before its basis is saturated.
    """
    w = label_expand(n1, n2)
    w_det = identity_labeled(n2)
    # exact disjointness test: with λ the labeling of n2, the product
    # accepts u iff λ(u) ∈ L(n1) ∩ L(n2)
    prod = product(w, w_det)
    if coverable(prod, settings):
        raise NotDisjointError("the coverability languages intersect; no separator exists")
    backward = prestar_basis(prod, settings)
    cert = invariant_from_backward(prod, backward, settings)
    log.info(
        "basis size %d (norm %d), invariant ideals %d",
        len(backward.basis.basis),
        backward.basis.norm(),
        len(cert.down.ideals),
    )
    core = build_core_automaton(w, w_det, cert, prod)
    dfa = minimize(determinize(core, settings))
    comp = complement(dfa)
    log.info("core states %d, minimal DFA states %d", len(core.states), len(dfa.states))
    sep = relabel(comp, {t.name: t.label for t in n2.transitions})
    sigma = tuple(dict.fromkeys(n1.alphabet + n2.alphabet))
    sep = widen_alphabet(sep, sigma)
    return SeparatorBundle(
        core=core,
        complement_dfa=comp,
        separator=sep,
        certificate=cert,
        w=w,
        w_det=w_det,
    )
