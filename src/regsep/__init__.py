"""Regular separators for Petri net coverability languages.

Given two labeled Petri nets with disjoint coverability languages, this
package constructs a finite automaton whose language contains the second
net's language and avoids the first's, together with a checkable
certificate chain: backward-reachability basis, ideal-decomposed inductive
invariant, separating automaton, and exact coverability-based verification.
"""

from .automata import Nfa, complement, determinize, member, minimize, relabel
from .backward import BackwardResult, coverable, disjoint, pred_basis, prestar_basis
from .errors import BudgetExceededError, InputError, NotDisjointError
from .ideals import OMEGA, DownSet, UpSet, complement_upset, member_down, member_up, omega_leq
from .invariant import InvariantCertificate, check_invariant, invariant_from_backward
from .petri import (
    LabeledPetriNet,
    NetSizeReport,
    Transition,
    covers,
    fire,
    identity_labeled,
    label_expand,
    net_size,
    product,
)
from .separator import SeparatorBundle, build_core_automaton, separate
from .verify import SeparatorReport, bounded_language, verify_separator

__all__ = [
    "BackwardResult",
    "BudgetExceededError",
    "DownSet",
    "InputError",
    "InvariantCertificate",
    "LabeledPetriNet",
    "NetSizeReport",
    "Nfa",
    "NotDisjointError",
    "OMEGA",
    "SeparatorBundle",
    "SeparatorReport",
    "Transition",
    "UpSet",
    "bounded_language",
    "build_core_automaton",
    "check_invariant",
    "complement",
    "complement_upset",
    "coverable",
    "covers",
    "determinize",
    "disjoint",
    "fire",
    "identity_labeled",
    "invariant_from_backward",
    "label_expand",
    "member",
    "member_down",
    "member_up",
    "minimize",
    "net_size",
    "omega_leq",
    "pred_basis",
    "prestar_basis",
    "product",
    "relabel",
    "separate",
    "verify_separator",
]
