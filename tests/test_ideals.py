"""Marking/ideal algebra: ordering, intersection, complement, successors."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsep.backward import prestar_basis
from regsep.config import Settings
from regsep.errors import BudgetExceededError, InputError
from regsep.generators import last_letter_pair, random_net_pair
from regsep.ideals import (
    OMEGA,
    Antichain,
    DownSet,
    IdealAntichain,
    IdealIndex,
    UpSet,
    check_marking,
    check_omega_marking,
    complement_upset,
    ideal_fire,
    member_down,
    member_up,
    omega_leq,
)
from regsep.petri import identity_labeled, label_expand, product

from .oracles import (
    all_markings,
    fold_complement_upset,
    intersect_ideals,
    naive_canonicalize_down,
    naive_member_down,
    naive_member_up,
    random_upset,
    scan_containing,
)

W = OMEGA

coords = st.one_of(st.integers(min_value=0, max_value=5), st.just(W))


def omega_vectors(dimension: int):
    return st.tuples(*([coords] * dimension))


def canonical_up(d, vectors):
    """The minimal vectors, sorted: the canonical `UpSet` they generate."""
    return UpSet(d, tuple(sorted(Antichain(vectors))))


def canonical_down(d, ideals):
    """The maximal ideals, sorted: the canonical `DownSet` of their union."""
    return DownSet(d, tuple(sorted(IdealAntichain(ideals))))


@st.composite
def upsets(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    vectors = draw(st.lists(st.tuples(*([st.integers(0, 3)] * d)), max_size=6))
    return canonical_up(d, vectors)


def canonical_key(u):
    return tuple((1, 0) if c == W else (0, c) for c in u)


both_complements = pytest.mark.parametrize(
    "complement", [complement_upset, fold_complement_upset], ids=["split", "fold"]
)


class TestOmegaLeq:
    def test_examples(self):
        assert omega_leq((0, W), (1, W))
        assert not omega_leq((W, 1), (1, W))
        assert omega_leq((2, 3), (2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            omega_leq((1,), (1, 2))

    @given(omega_vectors(3))
    def test_reflexive(self, u):
        assert omega_leq(u, u)

    @given(omega_vectors(3), omega_vectors(3))
    def test_antisymmetric(self, u, v):
        if omega_leq(u, v) and omega_leq(v, u):
            assert u == v

    @given(omega_vectors(3), omega_vectors(3), omega_vectors(3))
    def test_transitive(self, u, v, w):
        if omega_leq(u, v) and omega_leq(v, w):
            assert omega_leq(u, w)


class TestIntersectIdeals:
    def test_examples(self):
        assert intersect_ideals((0, W), (W, 1)) == (0, 1)
        assert intersect_ideals((W, W), (3, 5)) == (3, 5)
        assert intersect_ideals((1, 4, W), (2, 2, 7)) == (1, 2, 7)

    @given(omega_vectors(3), omega_vectors(3))
    def test_commutative(self, u, v):
        assert intersect_ideals(u, v) == intersect_ideals(v, u)

    @given(omega_vectors(3), omega_vectors(3), omega_vectors(3))
    def test_associative(self, u, v, w):
        assert intersect_ideals(intersect_ideals(u, v), w) == intersect_ideals(
            u, intersect_ideals(v, w)
        )

    @given(omega_vectors(3))
    def test_idempotent(self, u):
        assert intersect_ideals(u, u) == u

    @given(omega_vectors(3), omega_vectors(3))
    def test_is_greatest_lower_bound(self, u, v):
        w = intersect_ideals(u, v)
        assert omega_leq(w, u) and omega_leq(w, v)


class TestComplementUpset:
    def test_single_vector(self):
        down = complement_upset(UpSet(2, ((1, 2),)))
        assert set(down.ideals) == {(0, W), (W, 1)}

    def test_empty_basis(self):
        down = complement_upset(UpSet(2, ()))
        assert down.ideals == ((W, W),)

    def test_two_vectors(self):
        down = complement_upset(UpSet(2, ((1, 2), (2, 1))))
        assert set(down.ideals) == {(0, W), (1, 1), (W, 0)}
        # brute-force membership equivalence over all m in {0..3}^2
        for m in all_markings(2, 3):
            inside = naive_member_up(m, [(1, 2), (2, 1)])
            assert naive_member_down(m, down.ideals) != inside

    def test_zero_coordinate_skipped(self):
        # complement of a full upward cone in one coordinate
        down = complement_upset(UpSet(2, ((1, 0),)))
        assert down.ideals == ((0, W),)

    def test_exhaustive_xor_law_random(self):
        rng = random.Random(20240817)
        for _ in range(60):
            d = rng.randint(1, 4)
            up = random_upset(rng, d, 4, 4)
            down = complement_upset(up)
            for m in all_markings(d, 6):
                assert member_up(m, up) != member_down(m, down)


class TestComplementEdgeCases:
    @both_complements
    def test_zero_vector_gives_empty(self, complement):
        assert complement(UpSet(3, ((0, 0, 0),))) == DownSet(3, ())
        assert complement(UpSet(1, ((0,),))) == DownSet(1, ())

    @both_complements
    def test_dimension_zero(self, complement):
        assert complement(UpSet(0, ())) == DownSet(0, ((),))
        assert complement(UpSet(0, ((),))) == DownSet(0, ())

    @both_complements
    def test_several_zero_coordinates(self, complement):
        down = complement(UpSet(4, ((0, 2, 0, 0),)))
        assert down == DownSet(4, ((W, 1, W, W),))
        down = complement(UpSet(4, ((0, 2, 0, 1), (3, 0, 0, 0))))
        assert down == DownSet(4, ((2, 1, W, W), (2, W, W, 0)))

    @both_complements
    @given(upsets())
    @settings(max_examples=60, deadline=None)
    def test_canonical_antichain_and_xor_law(self, complement, up):
        down = complement(up)
        ideals = down.ideals
        for i, a in enumerate(ideals):
            for j, b in enumerate(ideals):
                assert i == j or not omega_leq(a, b)
        assert list(ideals) == sorted(ideals, key=canonical_key)
        for m in all_markings(up.dimension, 3):
            assert member_up(m, up) != member_down(m, down)


class TestComplementAgainstFold:
    """The split complement equals the original fold-and-canonicalize one."""

    def test_random_upsets(self):
        rng = random.Random(20261018)
        for _ in range(300):
            d = rng.randint(1, 6)
            up = random_upset(rng, d, 8, 4)
            assert complement_upset(up) == fold_complement_upset(up)

    def test_separation_backward_bases(self):
        for seed in range(100):
            n1, n2 = random_net_pair(seed)
            w = label_expand(n1, n2)
            basis = prestar_basis(product(w, identity_labeled(n2))).basis
            assert complement_upset(basis) == fold_complement_upset(basis)


class TestComplementBudget:
    def test_raises_past_node_budget(self):
        basis = prestar_basis(product(*last_letter_pair(2))).basis
        d, vectors = basis.dimension, basis.basis
        # after i basis vectors the complement holds the maximal ideals of
        # the complement of the first i cones
        held = [len(complement_upset(UpSet(d, vectors[:i])).ideals) for i in range(1, len(vectors) + 1)]
        n = max(held)
        assert n > held[-1]  # the budget bounds what is held on the way, not the result
        # exactly the ideals it holds is enough; one fewer is not
        assert complement_upset(basis, Settings(node_budget=n)) == complement_upset(basis)
        message = (
            rf"complement held {n} ideals, over the budget of {n - 1}, "
            rf"after {held.index(n) + 1} of {len(vectors)} basis vectors"
        )
        with pytest.raises(BudgetExceededError, match=message):
            complement_upset(basis, Settings(node_budget=n - 1))


class TestInputChecks:
    """OMEGA is a float; no other float may pass for a coordinate."""

    def test_marking_rejects_omega(self):
        with pytest.raises(InputError):
            check_marking((0, math.inf))

    @pytest.mark.parametrize("c", [1.5, -math.inf, math.nan, True])
    def test_omega_marking_rejects_non_naturals(self, c):
        with pytest.raises(InputError):
            check_omega_marking((0, c))

    def test_omega_marking_accepts_every_omega(self):
        # arithmetic on OMEGA makes new float objects that equal it
        check_omega_marking((OMEGA + 3, OMEGA - 1, math.inf, 0))


class TestCanonicalize:
    @given(st.lists(omega_vectors(3), max_size=12))
    @settings(max_examples=100)
    def test_down_matches_pairwise_scan(self, ideals):
        assert canonical_down(3, ideals) == naive_canonicalize_down(3, ideals)

    def test_down_examples(self):
        assert set(canonical_down(2, [(0, W), (0, 0), (1, 1)]).ideals) == {
            (0, W),
            (1, 1),
        }
        assert canonical_down(2, []).ideals == ()

    def test_up_examples(self):
        assert set(canonical_up(2, [(2, 1), (1, 2), (2, 2)]).basis) == {
            (2, 1),
            (1, 2),
        }
        assert canonical_up(2, []).basis == ()

    def test_deterministic_order(self):
        a = canonical_down(2, [(1, 1), (0, W), (W, 0)])
        b = canonical_down(2, [(W, 0), (1, 1), (0, W)])
        assert a.ideals == b.ideals

    @given(st.lists(omega_vectors(3), max_size=6))
    @settings(max_examples=60)
    def test_down_preserves_denotation(self, ideals):
        canon = canonical_down(3, ideals)
        for m in all_markings(3, 3):
            assert naive_member_down(m, ideals) == member_down(m, canon)

    @given(st.lists(st.tuples(*([st.integers(0, 4)] * 3)), max_size=6))
    @settings(max_examples=60)
    def test_up_preserves_denotation(self, vectors):
        canon = canonical_up(3, vectors)
        for m in all_markings(3, 3):
            assert naive_member_up(m, vectors) == member_up(m, canon)

    def test_antichain_enforced_on_construction(self):
        with pytest.raises(InputError):
            DownSet(2, ((0, 0), (0, W)))
        with pytest.raises(InputError):
            UpSet(2, ((1, 1), (2, 2)))


@st.composite
def index_queries(draw):
    """Ideals of dimension 1-8 or 70 over 0..5 and OMEGA, so columns repeat
    values, with queries of the same kind plus each ideal and its meet with
    a query, which the ideal contains."""
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 70]))
    ideals = draw(st.lists(omega_vectors(d), max_size=10))
    queries = draw(st.lists(omega_vectors(d), min_size=1, max_size=3))
    return ideals, queries + ideals + [intersect_ideals(u, s) for u in ideals for s in queries]


class TestIdealIndex:
    @given(index_queries())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scan(self, case):
        """Bit k is ideal k, and `containing` lists the ideals in tuple order."""
        ideals, queries = case
        index = IdealIndex(ideals)
        for s in queries:
            found = scan_containing(ideals, s)
            assert index.containing(s) == found
            assert index.mask(s) == sum(1 << k for k, u in enumerate(ideals) if u in found)

    def test_empty_and_one_ideal(self):
        assert IdealIndex([]).mask((0, W)) == 0
        assert IdealIndex([]).containing((0,)) == []
        one = IdealIndex([(2, W, 0)])
        assert one.mask((2, 7, 0)) == 1 and one.containing((1, W, 0)) == [(2, W, 0)]
        assert one.mask((3, 0, 0)) == one.mask((0, 0, 1)) == one.mask((W, 0, 0)) == 0

    def test_omega_sorts_last(self):
        index = IdealIndex([(W, 1), (3, W), (W, W), (3, 1)])
        assert index.containing((W, 1)) == [(W, 1), (W, W)]
        assert index.mask((4, 2)) == 0b0100
        assert index.mask((3, 1)) == 0b1111


class TestMembership:
    def test_examples(self):
        down = DownSet(2, ((0, W), (W, 1)))
        assert member_down((0, 5), down)
        assert not member_down((1, 2), down)
        assert member_up((3, 3), UpSet(2, ((1, 2),)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            member_down((1, 2, 3), DownSet(2, ((W, W),)))


class TestIdealFire:
    def test_disabled(self):
        assert ideal_fire((W, 0), (0, 1), (1, 0)) is None

    def test_finite(self):
        assert ideal_fire((1, 1), (0, 1), (1, 0)) == (2, 0)

    def test_omega_absorbs(self):
        assert ideal_fire((W, 2), (0, 1), (1, 0)) == (W, 1)

    def test_matches_pointwise_semantics(self):
        # the successor ideal is exactly the downward closure of the
        # successors of the ideal's members, checked by brute force
        rng = random.Random(7)
        for _ in range(80):
            d = rng.randint(1, 3)
            u = tuple(
                W if rng.random() < 0.3 else rng.randint(0, 4) for _ in range(d)
            )
            pre = tuple(rng.randint(0, 2) for _ in range(d))
            post = tuple(rng.randint(0, 2) for _ in range(d))
            succ = ideal_fire(u, pre, post)
            cap = 6
            members = [
                m
                for m in all_markings(d, cap)
                if all(
                    True if c == W else x <= c for x, c in zip(m, u)
                )
            ]
            fired = [
                tuple(x - p + q for x, p, q in zip(m, pre, post))
                for m in members
                if all(x >= p for x, p in zip(m, pre))
            ]
            if succ is None:
                assert not fired
                continue
            assert fired
            for m2 in fired:
                assert all(
                    True if c == W else x <= c for x, c in zip(m2, succ)
                )
            # every finite coordinate of succ below cap is attained
            for i, c in enumerate(succ):
                if c != W and c <= cap - 2:
                    assert any(m2[i] == c for m2 in fired)
