"""Net semantics: firing, products, relabeling constructions, size metric."""

from __future__ import annotations

import random

import pytest

from regsep.errors import InputError
from regsep.generators import random_net_pair
from regsep.petri import (
    LabeledPetriNet,
    Transition,
    ceil_log2,
    covers,
    fire,
    identity_labeled,
    injectively_labeled,
    label_expand,
    net_size,
    product,
)
from regsep.verify import bounded_language

from .conftest import make_worked_pair
from .oracles import image_words, naive_language


def one_place_net(pre: int, post: int, m0: int, mf: int) -> LabeledPetriNet:
    return LabeledPetriNet(
        places=("p",),
        alphabet=("a",),
        transitions=(Transition("t", "a", (pre,), (post,)),),
        initial=(m0,),
        final=(mf,),
    )


class TestFire:
    def test_consume(self):
        net = one_place_net(1, 0, 2, 0)
        assert fire(net, (2,), "t") == (1,)

    def test_disabled(self):
        net = one_place_net(1, 0, 2, 0)
        assert fire(net, (0,), "t") is None

    def test_formula(self):
        net = LabeledPetriNet(
            places=("p", "q"),
            alphabet=("a",),
            transitions=(Transition("t", "a", (1, 0), (0, 2)),),
            initial=(1, 1),
            final=(0, 0),
        )
        assert fire(net, (1, 1), "t") == (0, 3)

    def test_unknown_transition(self):
        net = one_place_net(1, 0, 2, 0)
        with pytest.raises(InputError):
            fire(net, (1,), "missing")

    def test_upward_compatibility(self):
        rng = random.Random(99)
        for _ in range(100):
            net, _ = random_net_pair(rng.randint(0, 10_000))
            m1 = tuple(rng.randint(0, 3) for _ in net.places)
            m2 = tuple(x + rng.randint(0, 2) for x in m1)
            for t in net.transitions:
                r1 = fire(net, m1, t.name)
                if r1 is None:
                    continue
                r2 = fire(net, m2, t.name)
                assert r2 is not None
                assert all(x <= y for x, y in zip(r1, r2))


class TestValidation:
    def test_duplicate_transition_names(self):
        with pytest.raises(InputError):
            LabeledPetriNet(
                places=("p",),
                alphabet=("a",),
                transitions=(
                    Transition("t", "a", (0,), (0,)),
                    Transition("t", "a", (1,), (0,)),
                ),
                initial=(0,),
                final=(0,),
            )

    def test_label_outside_alphabet(self):
        with pytest.raises(InputError):
            LabeledPetriNet(
                places=("p",),
                alphabet=("a",),
                transitions=(Transition("t", "b", (0,), (0,)),),
                initial=(0,),
                final=(0,),
            )

    def test_no_epsilon_labels(self):
        with pytest.raises(InputError):
            LabeledPetriNet(
                places=("p",),
                alphabet=("", "a"),
                transitions=(),
                initial=(0,),
                final=(0,),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            LabeledPetriNet(
                places=("p", "q"),
                alphabet=("a",),
                transitions=(),
                initial=(0,),
                final=(0, 0),
            )


class TestProduct:
    def test_no_matching_labels(self):
        n1 = one_place_net(0, 1, 0, 1)
        n2 = LabeledPetriNet(
            places=("q",), alphabet=("a",), transitions=(), initial=(0,), final=(0,)
        )
        assert product(n1, n2).transitions == ()

    def test_single_pair(self):
        n1, n2 = make_worked_pair()
        prod = product(n1, n2)
        assert len(prod.transitions) == 1
        (t,) = prod.transitions
        assert t.pre == (0, 1)
        assert t.post == (1, 0)
        assert prod.initial == (0, 2)
        assert prod.final == (2, 1)

    def test_place_collision_prefixing(self):
        n1 = one_place_net(0, 1, 0, 1)
        prod = product(n1, n1)
        assert len(set(prod.places)) == 2

    def test_bounded_language_law(self):
        hits = 0
        for seed in range(40):
            n1, n2 = random_net_pair(seed, places=2, transitions=2, norm=1)
            prod = product(n1, n2)
            lp = set(bounded_language(prod, 6))
            l1 = set(bounded_language(n1, 6))
            l2 = set(bounded_language(n2, 6))
            assert lp == (l1 & l2)
            if lp:
                hits += 1
            if seed >= 19 and hits >= 5:
                break


class TestIdentityLabeled:
    def test_alphabet_becomes_transition_names(self):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(
                Transition("t1", "a", (0,), (1,)),
                Transition("t2", "a", (1,), (0,)),
            ),
            initial=(0,),
            final=(1,),
        )
        det = identity_labeled(net)
        assert det.alphabet == ("t1", "t2")
        assert all(t.label == t.name for t in det.transitions)
        assert injectively_labeled(det)

    def test_zero_transitions(self):
        net = LabeledPetriNet(
            places=("p",), alphabet=("a",), transitions=(), initial=(0,), final=(1,)
        )
        assert identity_labeled(net).alphabet == ()

    def test_label_image_preserves_language(self):
        for seed in (3, 17, 23):
            net, _ = random_net_pair(seed, places=2, transitions=2, norm=1)
            det = identity_labeled(net)
            mapping = {t.name: t.label for t in net.transitions}
            assert image_words(bounded_language(det, 6), mapping) == bounded_language(
                net, 6
            )


class TestLabelExpand:
    def test_copies_per_equal_label(self):
        n1 = one_place_net(0, 1, 0, 1)
        n2 = LabeledPetriNet(
            places=("q",),
            alphabet=("a",),
            transitions=(
                Transition("s1", "a", (0,), (0,)),
                Transition("s2", "a", (0,), (0,)),
            ),
            initial=(0,),
            final=(0,),
        )
        expanded = label_expand(n1, n2)
        assert len(expanded.transitions) == 2
        assert set(expanded.alphabet) == {"s1", "s2"}
        assert expanded.places == n1.places

    def test_no_shared_labels(self):
        n1 = one_place_net(0, 1, 0, 1)
        n2 = LabeledPetriNet(
            places=("q",),
            alphabet=("b",),
            transitions=(Transition("s", "b", (0,), (0,)),),
            initial=(0,),
            final=(0,),
        )
        assert label_expand(n1, n2).transitions == ()

    def test_determinization_language_law(self):
        # the product language is the label image of the transformed product
        for seed in range(20):
            n1, n2 = random_net_pair(seed, places=2, transitions=2, norm=1)
            w_det = identity_labeled(n2)
            w = label_expand(n1, n2)
            mapping = {t.name: t.label for t in n2.transitions}
            lhs = set(bounded_language(product(n1, n2), 5))
            rhs = set(
                image_words(bounded_language(product(w, w_det), 5), mapping)
            )
            assert lhs == rhs

    def test_transformed_product_is_direct_product(self):
        # equal up to transition names and labels, with the labels related
        # by n2's labeling: saturating either product gives the same basis
        pairs = [make_worked_pair()] + list(map(random_net_pair, range(100)))
        for n1, n2 in pairs:
            direct = product(n1, n2)
            moved = product(label_expand(n1, n2), identity_labeled(n2))
            assert moved.places == direct.places
            assert moved.initial == direct.initial
            assert moved.final == direct.final
            assert [(t.pre, t.post) for t in moved.transitions] == [
                (t.pre, t.post) for t in direct.transitions
            ]
            label_of = {t.name: t.label for t in n2.transitions}
            assert [label_of[t.label] for t in moved.transitions] == [
                t.label for t in direct.transitions
            ]


class TestNetSize:
    def test_formula_example(self):
        net = one_place_net(1, 0, 0, 1)
        report = net_size(net)
        # |P|=1,|T|=1,||F||=1: 1*1*(1+1) + 1*(1+0) + 1*(1+1) = 5
        assert report.size == 1 * 1 * (1 + ceil_log2(2)) + 1 * (
            1 + ceil_log2(1)
        ) + 1 * (1 + ceil_log2(2))
        assert report.flow_norm == 1
        assert report.place_count == 1
        assert report.transition_count == 1

    def test_empty_net(self):
        net = LabeledPetriNet(
            places=("p",), alphabet=("a",), transitions=(), initial=(3,), final=(1,)
        )
        report = net_size(net)
        assert report.size == 1 * (1 + ceil_log2(4)) + 1 * (1 + ceil_log2(2))

    def test_log_step(self):
        a = net_size(one_place_net(1, 0, 0, 0)).size
        b = net_size(one_place_net(2, 0, 0, 0)).size
        assert ceil_log2(2) == 1 and ceil_log2(3) == 2
        assert b == a + 1


class TestCovers:
    def test_examples(self):
        assert covers((2, 1), (1, 1))
        assert not covers((0, 5), (1, 0))
        assert covers((4, 7), (0, 0))


class TestBoundedLanguageOracleAgreement:
    def test_matches_naive_enumeration(self):
        for seed in range(15):
            n1, n2 = random_net_pair(seed, places=2, transitions=2, norm=1)
            for net in (n1, n2):
                assert set(bounded_language(net, 5)) == naive_language(net, 5)
