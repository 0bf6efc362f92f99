"""Benchmark families: the last-letter pair and seeded random pairs."""

from __future__ import annotations

import pytest

from regsep.backward import disjoint
from regsep.errors import InputError
from regsep.fileio import net_from_dict, net_to_dict
from regsep.generators import (
    LAST_LETTER_ALPHABET,
    last_letter_net,
    last_letter_pair,
    random_net_pair,
)
from regsep.verify import bounded_language

from .oracles import naive_language


def core_letters(word: tuple[str, ...]) -> tuple[str, ...]:
    """The 0/1 letters strictly between the two c-markers."""
    assert word[0] == "c" and word[-1] == "c"
    inner = word[1:-1]
    assert all(x in ("0", "1") for x in inner)
    return inner


class TestLastLetterNet:
    def test_parameter_validation(self):
        with pytest.raises(InputError):
            last_letter_net(2, 1)
        with pytest.raises(InputError):
            last_letter_net(0, 0)
        with pytest.raises(InputError):
            last_letter_net(0, 11)

    def test_alphabet(self):
        assert last_letter_net(0, 2).alphabet == LAST_LETTER_ALPHABET

    def test_k1_language_shape(self):
        # every accepted word is c . u . x . c with the marked bit last in
        # the 0/1 core
        for bit in (0, 1):
            net = last_letter_net(bit, 1)
            words = bounded_language(net, 6)
            assert words  # the family is non-degenerate
            for w in words:
                inner = core_letters(w)
                assert inner  # at least the marked bit itself
                assert inner[-1] == str(bit)

    def test_k2_language_shape(self):
        # for k=2 the marked bit sits second from the end of the core
        for bit in (0, 1):
            net = last_letter_net(bit, 2)
            for w in bounded_language(net, 7):
                inner = core_letters(w)
                assert len(inner) >= 2
                assert inner[-2] == str(bit)

    def test_k1_matches_naive_enumeration(self):
        net = last_letter_net(1, 1)
        assert set(bounded_language(net, 6)) == naive_language(net, 6)

    def test_pairs_disjoint_up_to_k8(self):
        for k in range(1, 9):
            assert disjoint(*last_letter_pair(k))

    def test_size_grows_logarithmically_in_k(self):
        from regsep.petri import net_size

        sizes = [net_size(last_letter_net(0, k)).size for k in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)
        # structure is constant; only the two marking encodings grow, by
        # one bit per place and log step (6 places, log 9 - log 2 = 3 steps)
        assert sizes[-1] - sizes[0] == 2 * 6 * 3


class TestRandomPair:
    def test_deterministic(self):
        a = random_net_pair(42)
        b = random_net_pair(42)
        assert a == b
        assert [net_to_dict(net) for net in a] == [net_to_dict(net) for net in b]

    def test_alphabet(self):
        n1, n2 = random_net_pair(3)
        assert n1.alphabet == n2.alphabet == ("a", "b")

    def test_round_trips_through_file_format(self):
        for seed in range(20):
            for net in random_net_pair(seed):
                assert net_from_dict(net_to_dict(net)) == net

    def test_disjoint_count_over_500_seeds(self):
        count = sum(1 for seed in range(500) if disjoint(*random_net_pair(seed)))
        assert count == 428  # recorded once; determinism keeps it stable

    def test_final_marking_never_zero(self):
        for seed in range(50):
            n1, n2 = random_net_pair(seed)
            assert any(n1.final) and any(n2.final)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            random_net_pair(1, places=0)
        with pytest.raises(InputError):
            random_net_pair(1, norm=-1)
