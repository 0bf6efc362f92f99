"""Inductive invariants from the backward basis, their check against a
scan of every ideal, and the size bounds."""

from __future__ import annotations

import pytest

from regsep.backward import coverable, prestar_basis
from regsep.config import Settings
from regsep.errors import BudgetExceededError, InputError
from regsep.generators import last_letter_pair, random_net_pair
from regsep.ideals import OMEGA, DownSet, complement_upset, member_down, member_up
from regsep.invariant import (
    BackwardBound,
    backward_bound,
    check_invariant,
    invariant_from_backward,
)
from regsep.petri import LabeledPetriNet, Transition, product

from .conftest import complete_cover, make_worked_pair
from .oracles import all_markings, scan_check_invariant
from .test_corpus import BOTH_NONEMPTY
from .test_cover import separator_products

W = OMEGA


class TestInvariantFromBackward:
    def test_worked_product(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        cert = invariant_from_backward(prod, prestar_basis(prod))
        assert set(cert.source_basis.basis) == {(2, 1), (1, 2), (0, 3)}
        assert set(cert.down.ideals) == {(0, 2), (1, 1), (W, 0)}
        # exhaustive membership equivalence over m in {0..5}^2
        for m in all_markings(2, 5):
            assert member_down(m, cert.down) != member_up(m, cert.source_basis)

    def test_single_vector_basis(self):
        # a net whose backward cone has basis {(1,0)}
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a",),
            transitions=(),
            initial=(0, 0),
            final=(1, 0),
        )
        cert = invariant_from_backward(net, prestar_basis(net))
        assert cert.down.ideals == ((0, W),)

    def test_coverable_net_rejected(self):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(),
            initial=(0,),
            final=(0,),
        )
        # zero final marking is covered by anything, including the initial
        with pytest.raises(InputError):
            invariant_from_backward(net, prestar_basis(net))

    def test_reuses_precomputed_backward_result(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        backward = prestar_basis(prod)
        cert = invariant_from_backward(prod, backward)
        assert cert.source_basis == backward.basis

    def test_complement_runs_within_the_node_budget(self):
        # the saturation keeps 13 nodes; the complement holds up to 32 ideals
        n1, n2 = random_net_pair(1)
        prod = product(n1, n2)
        budget = Settings(node_budget=32)
        backward = prestar_basis(prod, budget)
        assert len(invariant_from_backward(prod, backward, budget).down.ideals) == 32
        with pytest.raises(BudgetExceededError, match="complement held 32 ideals"):
            invariant_from_backward(prod, backward, Settings(node_budget=31))


class TestCheckInvariant:
    def test_constructed_invariant_passes(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        cert = invariant_from_backward(prod, prestar_basis(prod))
        report = check_invariant(prod, cert.down)
        assert report.passed
        assert report.failures == []

    def test_omega_ideal_fails_final_check(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        report = check_invariant(prod, DownSet(2, ((W, W),)))
        assert not report.final_ok
        assert not report.passed

    def test_empty_set_fails_initial_check(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        report = check_invariant(prod, DownSet(2, ()))
        assert not report.initial_ok

    def test_open_successor_fails_closure(self):
        # ideal (0,2) alone: firing moves to (1,1), which escapes
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        report = check_invariant(prod, DownSet(2, ((0, 2),)))
        assert not report.closed_ok
        assert any("escapes" in f for f in report.failures)
        assert report.successors == {((0, 2), "(t_a,s_a)"): []}

    def test_successors_match_brute_force_scan(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        down = invariant_from_backward(prod, prestar_basis(prod)).down
        expected = scan_check_invariant(prod, down)[3]
        report = check_invariant(prod, down)
        assert report.successors == expected
        # (0,2) -> (1,1) -> (w,0), where the second net cannot step
        step = "(t_a,s_a)"
        assert expected == {((0, 2), step): [(1, 1)], ((1, 1), step): [(W, 0)]}
        assert "successors" not in repr(report)

    def test_successors_match_brute_force_scan_on_a_large_invariant(self):
        # 10 places, 681 ideals in 178 buckets
        n1, n2 = random_net_pair(98, places=5, transitions=3, norm=3)
        prod = product(n1, n2)
        down = invariant_from_backward(prod, prestar_basis(prod)).down
        assert len(down.ideals) == 681
        report = check_invariant(prod, down)
        assert report.passed
        assert report.successors == scan_check_invariant(prod, down)[3]

    def test_dimension_mismatch(self):
        n1, n2 = make_worked_pair()
        with pytest.raises(InputError):
            check_invariant(product(n1, n2), DownSet(3, ((W, W, W),)))


def invariant_check_cases():
    """(name, product, down set): the separator's product of every
    `separation_pairs` pair with its forward cover and, when disjoint, its
    greatest invariant; the direct products of last-letter k=2..5 with
    both; and the direct products of `BOTH_NONEMPTY` with their covers."""
    for name, prod, cover, greatest in separator_products():
        yield f"{name}-cover", prod, cover
        if greatest is not None:
            yield f"{name}-greatest", prod, greatest
    direct = [(f"last-letter-k{k}", product(*last_letter_pair(k))) for k in range(2, 6)]
    for (places, transitions), seeds in BOTH_NONEMPTY.items():
        for seed in seeds:
            n1, n2 = random_net_pair(seed, places, transitions, norm=3)
            direct.append((f"both-nonempty-{places}-{transitions}-{seed}", product(n1, n2)))
    for name, prod in direct:
        yield f"{name}-direct-cover", prod, DownSet(prod.dimension, tuple(sorted(complete_cover(prod))))
        if name.startswith("last-letter"):
            yield f"{name}-direct-greatest", prod, complement_upset(prestar_basis(prod).basis)


class TestCheckInvariantAgainstScan:
    def test_verdicts_and_successors(self):
        """The three verdicts and the successor relation equal those of
        firing every step on every ideal and scanning all ideals, on covers
        that fail the final check, greatest invariants and OMEGA-heavy
        ideal sets."""
        checked, failed, with_omega = 0, 0, 0
        for name, prod, down in invariant_check_cases():
            report = check_invariant(prod, down)
            *verdicts, successors = scan_check_invariant(prod, down)
            assert [report.initial_ok, report.final_ok, report.closed_ok] == verdicts, name
            assert list(report.successors.items()) == list(successors.items()), name
            checked += 1
            failed += not report.passed
            with_omega += any(W in u for u in down.ideals)
        assert (checked, failed, with_omega) == (465, 37, 221)


class TestBounds:
    def test_documented_example(self):
        # |T|=1, flow norm 1, initial norm 0, final norm 2, |P|=2
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a",),
            transitions=(Transition("t", "a", (1, 0), (0, 1)),),
            initial=(0, 0),
            final=(2, 0),
        )
        bound = backward_bound(net)
        assert bound.base == 5
        assert bound.exponent == 64
        assert bound.at_least(5**64) and not bound.at_least(5**64 + 1)

    def test_no_transitions(self):
        net = LabeledPetriNet(
            places=("p",), alphabet=("a",), transitions=(), initial=(0,), final=(1,)
        )
        bound = backward_bound(net)
        assert (bound.base, bound.exponent) == (0, 1)
        assert not bound.at_least(1)

    def test_monotone_in_norms(self):
        def bound_for(flow, m0, mf):
            net = LabeledPetriNet(
                places=("p",),
                alphabet=("a",),
                transitions=(Transition("t", "a", (flow,), (0,)),),
                initial=(m0,),
                final=(mf,),
            )
            # one place throughout, so the exponents are equal
            return backward_bound(net).base

        assert bound_for(1, 0, 1) < bound_for(2, 0, 1)
        assert bound_for(1, 0, 1) < bound_for(1, 1, 1)
        assert bound_for(1, 0, 1) < bound_for(1, 0, 2)

    def test_at_least_matches_value_small(self):
        for base in range(0, 5):
            for exponent in range(0, 6):
                b = BackwardBound(base, exponent)
                for v in range(0, 300):
                    assert b.at_least(v) == (base**exponent >= v)

    def test_at_least_without_materializing(self):
        huge = BackwardBound(base=10, exponent=2**40)
        assert huge.at_least(10**9)

    def test_ideal_count_bound(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        cert = invariant_from_backward(prod, prestar_basis(prod))
        assert len(cert.down.ideals) <= cert.bound_ideal_count
        assert cert.bound_ideal_count == (cert.source_basis.norm() + 2) ** 2


class TestBoundConformance:
    def test_basis_within_bound_on_worked_product(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        result = prestar_basis(prod)
        bound = backward_bound(prod)
        assert bound.at_least(len(result.basis.basis))
        assert bound.at_least(result.basis.norm())
