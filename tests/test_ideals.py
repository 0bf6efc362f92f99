"""Marking/ideal algebra: ordering, intersection, complement, successors."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsep.backward import prestar_basis
from regsep.errors import InputError
from regsep.generators import random_net_pair
from regsep.ideals import (
    OMEGA,
    DownSet,
    UpSet,
    canonicalize_down,
    canonicalize_up,
    complement_upset,
    ideal_fire,
    intersect_ideals,
    member_down,
    member_up,
    omega_leq,
)
from regsep.petri import identity_labeled, label_expand, product

from .oracles import (
    all_markings,
    fold_complement_upset,
    naive_member_down,
    naive_member_up,
    random_upset,
)

W = OMEGA

coords = st.one_of(st.integers(min_value=0, max_value=5), st.just(W))


def omega_vectors(dimension: int):
    return st.tuples(*([coords] * dimension))


@st.composite
def upsets(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    vectors = draw(st.lists(st.tuples(*([st.integers(0, 3)] * d)), max_size=6))
    return canonicalize_up(d, vectors)


def canonical_key(u):
    return tuple((1, 0) if c is W else (0, c) for c in u)


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
            pair = random_net_pair(seed)
            w = label_expand(pair.n1, pair.n2)
            basis = prestar_basis(product(w, identity_labeled(pair.n2))).basis
            assert complement_upset(basis) == fold_complement_upset(basis)


class TestCanonicalize:
    def test_down_examples(self):
        assert set(canonicalize_down(2, [(0, W), (0, 0), (1, 1)]).ideals) == {
            (0, W),
            (1, 1),
        }
        assert canonicalize_down(2, []).ideals == ()

    def test_up_examples(self):
        assert set(canonicalize_up(2, [(2, 1), (1, 2), (2, 2)]).basis) == {
            (2, 1),
            (1, 2),
        }
        assert canonicalize_up(2, []).basis == ()

    def test_deterministic_order(self):
        a = canonicalize_down(2, [(1, 1), (0, W), (W, 0)])
        b = canonicalize_down(2, [(W, 0), (1, 1), (0, W)])
        assert a.ideals == b.ideals

    @given(st.lists(omega_vectors(3), max_size=6))
    @settings(max_examples=60)
    def test_down_preserves_denotation(self, ideals):
        canon = canonicalize_down(3, ideals)
        for m in all_markings(3, 3):
            assert naive_member_down(m, ideals) == member_down(m, canon)

    @given(st.lists(st.tuples(*([st.integers(0, 4)] * 3)), max_size=6))
    @settings(max_examples=60)
    def test_up_preserves_denotation(self, vectors):
        canon = canonicalize_up(3, vectors)
        for m in all_markings(3, 3):
            assert naive_member_up(m, vectors) == member_up(m, canon)

    def test_antichain_enforced_on_construction(self):
        with pytest.raises(InputError):
            DownSet(2, ((0, 0), (0, W)))
        with pytest.raises(InputError):
            UpSet(2, ((1, 1), (2, 2)))


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
                    True if c is W else x <= c for x, c in zip(m, u)
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
                    True if c is W else x <= c for x, c in zip(m2, succ)
                )
            # every finite coordinate of succ below cap is attained
            for i, c in enumerate(succ):
                if c is not W and c <= cap - 2:
                    assert any(m2[i] == c for m2 in fired)
