"""The forward Karp-Miller cover and the saturations it prunes.

`forward_cover` is compared with exhaustive reachability on bounded nets
and with bounded runs and the backward basis on unbounded ones.  Pruning a
saturation by it, however late the pruning starts (a late start is the
retry after a first cover that gives up), must leave exactly the
unpruned saturation restricted to the cover: per-state antichains in
element order and the parents map in key order, also where the cover has
an OMEGA column, and once a complete cover holds the final marking, no
node kept or expanded after it may lie outside it.  The cover loop keeps the
ideals of the loop that fires every transition, in the same order, and
gives up past the same limit.  Every pruned search, a decision or a
witness search, computes the cover before it expands a node, limited by
the nodes it keeps (at least `PRUNE_AFTER`, at most the budget), so a net
with a huge cover costs no more than its search.  The cover has no budget
of its own: past its limit it returns None, and only the search runs out
of budget.  A decision answers from the first complete cover, and a witness
search ends at one that misses the final marking: neither expands a node
after it.  `separate` decides, then saturates: it asks `coverable` on the
product, with the same cover schedule, refuses exactly the coverable
products and otherwise keeps the unpruned `prestar_basis`.  The complete
cover of a disjoint pair's product is itself an inductive invariant,
inside the complement of the backward basis.  `verify_separator` reads
the verdicts and witness words of the unpruned list loop.
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import replace

import pytest

from regsep import backward
from regsep.automata import (
    Nfa,
    backward_complement,
    complement,
    determinize,
    minimize,
    net_automaton_intersection_witness,
)
from regsep.backward import (
    PRUNE_AFTER,
    coverable,
    disjoint,
    forward_cover,
    prestar_basis,
    saturate,
)
from regsep.cli import EXIT_BUDGET_EXCEEDED, EXIT_OK, main
from regsep.config import DEFAULT, Settings
from regsep.errors import BudgetExceededError, NotDisjointError
from regsep.fileio import save_net
from regsep.generators import last_letter_net, last_letter_pair, random_net_pair
from regsep.ideals import OMEGA, DownSet, complement_upset
from regsep.invariant import check_invariant
from regsep.petri import LabeledPetriNet, Transition, identity_labeled, label_expand, product
from regsep.separator import separate
from regsep.verify import verify_separator

from .conftest import candidate_nfa, complete_cover
from .oracles import (
    bfs_cover,
    list_intersection_saturation,
    list_intersection_witness,
    naive_member_down,
    per_transition_forward_cover,
    random_nfa,
    reachable_markings,
)
from .test_antichain import _back, random_products
from .test_corpus import BOTH_NONEMPTY


def one_state_back(net) -> dict:
    return {(None, t.label): (None,) for t in net.transitions}


@contextlib.contextmanager
def cover_retried_at(start: int):
    """Within it, a pruned search takes the retry path: its first cover
    gives up, as on a net whose cover is larger than its limit, and the
    search computes the cover again once it keeps four times that limit.
    The least limit is `start // 4` here instead of `PRUNE_AFTER`, so the
    retry comes at `start` kept nodes, or later for a search with more
    roots.  A `start` of 0 changes nothing: the cover comes before the
    first expansion."""
    if not start:
        yield
        return
    cover = backward.forward_cover
    calls = []

    def first_gives_up(net, limit):
        calls.append(limit)
        return None if len(calls) == 1 else cover(net, limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backward, "PRUNE_AFTER", start // 4)
        patch.setattr(backward, "forward_cover", first_gives_up)
        yield


def assert_pruned_is_restriction(net, roots, back, start=0) -> tuple[int, int]:
    """A witness search pruned from `start` kept nodes on and `saturate`
    unpruned agree on the markings inside the cover.  Returns the kept nodes
    of both."""
    cover = complete_cover(net)

    def inside(m):
        return naive_member_down(m, cover)

    def restricted(chains, parents):
        kept = {q: [m for m in c if inside(m)] for q, c in chains.items()}
        return {q: c for q, c in kept.items() if c}, [(n, p) for n, p in parents.items() if inside(n[1])]

    chains, parents, _ = saturate(net, roots, back)
    with cover_retried_at(start):
        pruned_chains, pruned_parents, _ = saturate(net, roots, back, DEFAULT, "witness")
    assert restricted(pruned_chains, pruned_parents) == restricted(chains, parents)
    return len(pruned_parents), len(parents)


def random_automaton_pairs():
    """The (net, automaton) pairs of `test_antichain`'s random automata tests."""
    rng = random.Random(7)
    for seed in range(200):
        net = random_net_pair(seed)[0]
        yield net, random_nfa(rng, rng.randint(2, 5), net.alphabet)


def candidate_searches(k: int):
    """The two witness searches of verifying each last-letter candidate."""
    n0, n1 = last_letter_pair(k)
    for bit in (0, 1):
        dfa = minimize(determinize(candidate_nfa(k, bit)))
        yield n0, dfa
        yield n1, complement(dfa)


class TestPrunedSaturation:
    def test_random_automata(self):
        kept = [assert_pruned_is_restriction(net, sorted(a.final), _back(a))
                for net, a in random_automaton_pairs()]
        assert sum(p for p, _ in kept) < sum(u for _, u in kept)

    def test_random_products(self):
        kept = [assert_pruned_is_restriction(net, (None,), one_state_back(net))
                for net in random_products()]
        assert len(kept) == 240
        assert sum(p for p, _ in kept) < sum(u for _, u in kept)

    @pytest.mark.parametrize("start", [0, 8, PRUNE_AFTER])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_last_letter_candidates(self, k, start):
        for net, aut in candidate_searches(k):
            pruned, unpruned = assert_pruned_is_restriction(net, sorted(aut.final), _back(aut), start)
            assert pruned <= unpruned


class TestForwardCover:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_last_letter_nets_against_reachability(self, k):
        n0, n1 = last_letter_pair(k)
        n = last_letter_net(0, k)
        for net in (n0, n1, product(n0, n1), product(label_expand(n, n), identity_labeled(n))):
            assert sorted(complete_cover(net)) == bfs_cover(net)

    def test_bounded_random_nets_against_reachability(self):
        # a net with at most 300 reachable markings is bounded; in some of
        # them a reachable marking lies below another and is not in the cover
        checked = below_another = 0
        for seed in range(200):
            n1, n2 = random_net_pair(seed, places=2 + seed % 4, norm=1 + seed // 4 % 3)
            for net in (n1, n2):
                try:
                    reached = reachable_markings(net, limit=300)
                except RuntimeError:
                    continue
                want = bfs_cover(net)
                assert sorted(complete_cover(net)) == want
                checked += 1
                below_another += len(want) < len(reached)
        assert checked > 200 and below_another > 20

    def test_random_nets_cover_short_runs(self):
        """Every marking reached in at most 6 steps lies below an ideal of
        the cover, the sorted cover does not depend on the order of the
        transitions, and every ideal of it, OMEGA read as 2, is coverable
        by the unpruned backward basis: the cover is neither too small nor
        too large."""
        rng = random.Random(3)
        accelerated = 0
        for seed in range(200):
            n1, n2 = random_net_pair(seed, places=2 + seed % 4, norm=1 + seed // 4 % 3)
            for net in (n1, n2):
                cover = sorted(complete_cover(net))
                for m in reachable_markings(net, depth=6):
                    assert naive_member_down(m, cover)
                shuffled = list(net.transitions)
                rng.shuffle(shuffled)
                assert sorted(complete_cover(replace(net, transitions=tuple(shuffled)))) == cover
                for u in cover:
                    target = tuple(2 if c == OMEGA else c for c in u)
                    assert prestar_basis(replace(net, final=target)).coverable
                accelerated += any(OMEGA in u for u in cover)
        assert accelerated > 100

    def test_loop_against_per_transition_reference(self):
        """The cover loop keeps the ideals of the loop that fires every
        transition, in the same insertion order, and gives up past a limit
        exactly where that loop does."""

        def outcome(cover, net, limit):
            result = cover(net, limit)
            return None if result is None else list(result)

        checked = merged = 0
        for net in cover_loop_nets():
            full = list(complete_cover(net))
            assert outcome(per_transition_forward_cover, net, DEFAULT.node_budget) == full
            for n in {1, len(full) // 2, len(full) - 1, len(full)} - {0}:
                assert outcome(forward_cover, net, n) == outcome(per_transition_forward_cover, net, n)
            checked += 1
            merged += len({(t.pre, t.post) for t in net.transitions}) < len(net.transitions)
        assert checked == 1100 and merged == 99


class TestPrunedCoverable:
    def test_random_products(self):
        verdicts = [coverable(net) for net in random_products()]
        assert verdicts == [prestar_basis(net).coverable for net in random_products()]
        assert 0 < sum(verdicts) < 240

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_last_letter_products(self, k):
        n = last_letter_net(0, k)
        for net in (product(*last_letter_pair(k)), product(label_expand(n, n), identity_labeled(n))):
            assert coverable(net) == prestar_basis(net).coverable

    def test_separation_pairs(self, covers):
        """Each pair's product and both its nets.  Every decision computes
        the cover first and answers from it once complete, whether it holds
        the final marking or not: all 708 here."""
        from_cover = {True: 0, False: 0}
        for name, n1, n2 in separation_pairs():
            for net in (product(n1, n2), n1, n2):
                covers.clear()
                verdict = coverable(net)
                assert verdict == prestar_basis(net).coverable, name
                if any(complete for _, complete in covers):
                    from_cover[verdict] += 1
        assert from_cover == {True: 285, False: 423}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_disjoint_expands_no_node_after_the_cover(self, k, covers, preds_after_cover):
        assert disjoint(*last_letter_pair(k))
        assert covers == [(64, True)]
        assert preds_after_cover == []  # the cover comes before any node

    def test_witness_search_ends_when_the_cover_misses(self, covers, preds_after_cover):
        # a disjoint pair's product has an empty language; against the
        # automaton of every word it searches like `disjoint`
        net = product(*last_letter_pair(3))
        every_word = Nfa(
            states=("q",),
            alphabet=net.alphabet,
            transitions=tuple(("q", a, "q") for a in net.alphabet),
            initial=frozenset({"q"}),
            final=frozenset({"q"}),
        )
        assert net_automaton_intersection_witness(net, every_word) is None
        assert covers == [(64, True)]
        assert preds_after_cover == []  # the cover comes before any node

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("bit", [1, 0])
    def test_witness_searches_keep_their_schedule(self, k, bit, covers):
        # the verifications of the benchmark's candidates: each witness
        # search computes the cover before it expands a node, limited to
        # PRUNE_AFTER nodes
        assert verify_separator(*last_letter_pair(k), candidate_nfa(k, bit)).passed is bool(bit)
        assert covers == [(64, True), (64, True)]
        assert all(limit >= PRUNE_AFTER for limit, _ in covers)

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("bit", [1, 0])
    def test_candidate_searches_expand_no_node_before_the_cover(self, k, bit, preds_after_cover):
        assert verify_separator(*last_letter_pair(k), candidate_nfa(k, bit)).passed is bool(bit)
        assert preds_after_cover and all(preds_after_cover)


class TestCoverBudget:
    def test_returns_none_past_limit(self):
        # exactly the nodes it keeps is enough; one fewer is not
        net = product(*last_letter_pair(3))
        cover = complete_cover(net)
        assert list(forward_cover(net, len(cover))) == list(cover)
        assert forward_cover(net, len(cover) - 1) is None

    def test_search_runs_out_never_the_cover(self):
        # a saturation limits its cover to the nodes it keeps, which may be
        # its whole budget: the cover past its limit gives up, and only the
        # search raises
        n = last_letter_net(0, 6)
        net = product(label_expand(n, n), identity_labeled(n))
        assert forward_cover(net, 64) is None
        # the search keeps 68 nodes when it first computes the cover, which
        # does not fit in 68; the search itself then runs out of budget,
        # also when `separate` asks it to refuse the self pair
        settings = Settings(node_budget=68)
        with pytest.raises(BudgetExceededError, match="saturation kept over 68 nodes"):
            coverable(net, settings)
        with pytest.raises(BudgetExceededError, match="saturation kept over 68 nodes"):
            separate(n, n, settings)

    @pytest.mark.parametrize("net, cover_nodes, answer", [
        (product(*last_letter_pair(3)), 20, False),
        (product(label_expand(last_letter_net(0, 3), last_letter_net(0, 3)),
                 identity_labeled(last_letter_net(0, 3))), 26, True),
    ])
    def test_first_cover_is_limited_to_the_budget(self, net, cover_nodes, answer):
        # a decision computes the cover before it keeps a node, limited to
        # PRUNE_AFTER nodes but never past the budget: under a budget too
        # small for the cover the search runs out, never the cover
        assert len(complete_cover(net)) == cover_nodes
        for n in range(1, cover_nodes):
            with pytest.raises(BudgetExceededError, match=rf"^saturation kept over {n} nodes"):
                coverable(net, Settings(node_budget=n))
        for n in range(cover_nodes, 3 * PRUNE_AFTER):
            assert coverable(net, Settings(node_budget=n)) is answer

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("bit", [1, 0])
    def test_witness_search_cover_is_limited_to_the_budget(self, k, bit):
        # the same for the witness searches of a verification, once the
        # budget holds the co-candidate's subsets: under a budget too small
        # for the nets' covers, 2k + 2 nodes each, the search runs out,
        # never the cover
        n1, n2 = last_letter_pair(k)
        b = candidate_nfa(k, bit)
        subsets = len(backward_complement(b).states)
        cover_nodes = 2 * k + 2
        assert len(complete_cover(n1)) == len(complete_cover(n2)) == cover_nodes
        for n in range(1, subsets):
            with pytest.raises(BudgetExceededError, match=rf"^subset construction exceeded {n} "):
                verify_separator(n1, n2, b, Settings(node_budget=n))
        for n in range(subsets, cover_nodes):
            with pytest.raises(BudgetExceededError, match=rf"^saturation kept over {n} nodes"):
                verify_separator(n1, n2, b, Settings(node_budget=n))
        for n in range(cover_nodes, 3 * PRUNE_AFTER):
            assert verify_separator(n1, n2, b, Settings(node_budget=n)).passed is bool(bit)

    def test_cli_disjoint_budget_counts_the_search_only(self, tmp_path, monkeypatch, capsys):
        # the cover of the last-letter k=3 product keeps 20 nodes; the cover
        # a search computes is limited to the budget, so a smaller budget
        # runs the search past its cover and out of budget, never the cover
        p1, p2 = tmp_path / "n1.net", tmp_path / "n2.net"
        for net, path in zip(last_letter_pair(3), (p1, p2)):
            save_net(net, str(path))
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("REGSEP_CONFIG", str(cfg))
        cfg.write_text('{"node_budget": 19}')
        assert main(["disjoint", str(p1), str(p2)]) == EXIT_BUDGET_EXCEEDED
        assert "saturation kept over 19 nodes" in capsys.readouterr().err
        cfg.write_text('{"node_budget": 20}')
        assert main(["disjoint", str(p1), str(p2)]) == EXIT_OK


def token_chain(tokens: int, final: int) -> LabeledPetriNet:
    """`tokens` tokens move from p1 to p2 on a and from p2 to p3 on b;
    bounded, with about tokens**2 / 2 maximal reachable markings."""
    return LabeledPetriNet(
        places=("p1", "p2", "p3"),
        alphabet=("a", "b"),
        transitions=(Transition("t1", "a", (1, 0, 0), (0, 1, 0)),
                     Transition("t2", "b", (0, 1, 0), (0, 0, 1))),
        initial=(tokens, 0, 0),
        final=(0, 0, final),
    )


# the words that start with b, as a net and as an automaton
STARTS_WITH_B = LabeledPetriNet(
    places=("s", "q"),
    alphabet=("a", "b"),
    transitions=(Transition("first", "b", (1, 0), (0, 1)),
                 Transition("a", "a", (0, 1), (0, 1)),
                 Transition("b", "b", (0, 1), (0, 1))),
    initial=(1, 0),
    final=(0, 1),
)
STARTS_WITH_B_NFA = Nfa(
    states=("s", "q"),
    alphabet=("a", "b"),
    transitions=(("s", "b", "q"), ("q", "a", "q"), ("q", "b", "q")),
    initial=frozenset({"s"}),
    final=frozenset({"q"}),
)


@pytest.fixture
def covers(monkeypatch):
    calls = []  # (limit, whether a cover came back)
    cover = backward.forward_cover

    def spy(net, limit):
        result = cover(net, limit)
        calls.append((limit, result is not None))
        return result

    monkeypatch.setattr(backward, "forward_cover", spy)
    return calls


@pytest.fixture
def preds_after_cover(monkeypatch, covers):
    """One entry per predecessor computed: whether a complete cover came
    before it."""
    calls = []
    pred = backward._pred

    def recording(v, pre, post):
        calls.append(any(complete for _, complete in covers))
        return pred(v, pre, post)

    monkeypatch.setattr(backward, "_pred", recording)
    return calls


class TestLargeCovers:
    """The runs of `token_chain(300, ...)` never start with b, and its
    complete cover holds about 45,000 ideals; computing the cover in full
    took 53 s already for `token_chain(150, 1)`.  Every search on it
    starts with a cover limited to `PRUNE_AFTER` nodes, which gives up."""

    def test_small_search_pays_one_limited_cover(self, covers):
        """A small search pays at most one cover, limited to 64 nodes."""
        net = token_chain(300, 1)
        assert disjoint(net, STARTS_WITH_B)
        assert verify_separator(net, STARTS_WITH_B, STARTS_WITH_B_NFA).passed
        # `disjoint` computes the stuck product's one-ideal cover; the
        # chain's witness search gives up on its 64-node cover and answers
        # from its fixpoint, and STARTS_WITH_B's cover is complete
        assert covers == [(64, True), (64, False), (64, True)]

    def test_large_search_limits_the_cover(self, covers):
        # covering 20 tokens in p3 has 231 minimal markings
        net = token_chain(300, 20)
        assert coverable(net) and prestar_basis(net).coverable
        assert disjoint(net, STARTS_WITH_B)
        assert verify_separator(net, STARTS_WITH_B, STARTS_WITH_B_NFA).passed
        # the chain's own searches give up on the cover, the witness search
        # again once it keeps four times the limit; the product with
        # STARTS_WITH_B cannot move, and STARTS_WITH_B's own cover is small
        assert covers == [(64, False), (64, True), (64, False), (256, False), (64, True)]
        assert not coverable(replace(net, initial=(19, 0, 0)))


def pump_net(n: int) -> LabeledPetriNet:
    """One token walks from s0 to s<n-1> on a, and at s<n/2> each b adds a
    token to the unbounded place c.  The final marking is s<n-1> with two
    tokens in c, so the forward cover holds it, and c's column of the cover
    is 0 before s<n/2> and OMEGA from there on."""
    def vec(i: int, c: int = 0) -> tuple[int, ...]:
        return tuple(int(j == i) for j in range(n)) + (c,)

    return LabeledPetriNet(
        places=tuple(f"s{i}" for i in range(n)) + ("c",),
        alphabet=("a", "b"),
        transitions=tuple(Transition(f"a{i}", "a", vec(i), vec(i + 1)) for i in range(n - 1))
        + (Transition("pump", "b", vec(n // 2), vec(n // 2, 1)),),
        initial=vec(0),
        final=vec(n - 1, 2),
    )


class TestOmegaCoverPruning:
    @pytest.mark.parametrize("n, counts", [(6, (10, 3, 685, 1485)), (8, (13, 3, 945, 2461))])
    def test_witness_searches_against_unpruned_lists(self, n, counts, covers):
        """Witness searches that prune by a cover with an OMEGA column only
        once they keep 64 nodes, on the retry path after a first cover that
        gives up, keep the unpruned list loop's nodes and parents, in order,
        inside the cover; the witness search, which prunes from the start,
        finds the list loop's witness."""
        net = pump_net(n)
        cover = complete_cover(net)
        assert sorted({u[-1] for u in cover}) == [0, OMEGA] and len(cover) == n
        rng = random.Random(n)
        pruned = kept = unpruned = witnesses = 0
        for _ in range(20):
            a = random_nfa(rng, rng.randint(3, 6), net.alphabet)
            covers.clear()
            with cover_retried_at(PRUNE_AFTER):
                _, parents, _ = saturate(net, sorted(a.final), _back(a), DEFAULT, "witness")
            if not covers:
                continue  # kept under 64 nodes
            [(limit, complete)] = covers
            assert complete and limit >= PRUNE_AFTER
            want = list_intersection_saturation(net, a)

            def inside(items):
                return [(node, p) for node, p in items if naive_member_down(node[1], cover)]

            assert inside(parents.items()) == inside(want[1].items())
            word = net_automaton_intersection_witness(net, a)
            assert word == list_intersection_witness(net, a, want)
            pruned += 1
            kept += len(parents)
            unpruned += len(want[1])
            witnesses += word is not None
        assert (pruned, witnesses, kept, unpruned) == counts


class TestWitnessWords:
    """`verify_separator`, whose searches prune from the start, reads the
    verdicts and witness words of the unpruned list loop."""

    @staticmethod
    def assert_unpruned_words(n1, n2, b, name) -> int:
        report = verify_separator(n1, n2, b)
        want = (list_intersection_witness(n1, b),
                list_intersection_witness(n2, backward_complement(b)))
        assert (report.disjointness_witness, report.containment_witness) == want, name
        assert (report.disjointness_ok, report.containment_ok) == (want[0] is None, want[1] is None)
        return sum(w is not None for w in want)

    def test_separators_of_separation_pairs(self):
        checked = 0
        for name, n1, n2 in separation_pairs():
            try:
                b = separate(n1, n2).separator
            except NotDisjointError:
                continue
            assert self.assert_unpruned_words(n1, n2, b, name) == 0
            checked += 1
        assert checked == 199

    def test_last_letter_candidates(self):
        witnesses = sum(self.assert_unpruned_words(*last_letter_pair(k), candidate_nfa(k, bit), (k, bit))
                        for k in range(2, 8) for bit in (0, 1))
        assert witnesses == 12


@pytest.fixture
def holding_cover(monkeypatch):
    """The complete cover that holds the final marking, once a search
    computes one; clear it before each search."""
    holding = []
    cover = backward.forward_cover

    def spy(net, limit):
        result = cover(net, limit)
        if result is not None and naive_member_down(net.final, result):
            holding.append(result)
        return result

    monkeypatch.setattr(backward, "forward_cover", spy)
    return holding


@pytest.fixture
def kept_after_cover(monkeypatch, holding_cover):
    """Runs a witness search of a net against an automaton, pruned from
    `start` kept nodes on (see `cover_retried_at`), and returns, for each
    node it keeps once a complete cover holds the final marking, whether
    that cover holds the node's marking too: nothing for a search that
    keeps too few nodes to reach its cover."""
    kept = []

    class Recording(backward.Antichain):
        def add(self, m):
            if not super().add(m):
                return False
            if holding_cover:
                kept.append(naive_member_down(m, holding_cover[0]))
            return True

    def search(net, a, start):
        holding_cover.clear()
        kept.clear()
        with cover_retried_at(start):
            saturate(net, sorted(a.final), _back(a), DEFAULT, "witness")
        return kept[:]

    monkeypatch.setattr(backward, "Antichain", Recording)
    return search


@pytest.fixture
def expanded_after_cover(monkeypatch, holding_cover):
    """Runs a witness search of a net against an automaton, pruned from
    `start` kept nodes on, and returns, for each predecessor it computes
    once a complete cover holds the final marking, whether that cover holds
    the expanded marking."""
    expanded = []
    pred = backward._pred

    def recording(v, pre, post):
        if holding_cover:
            expanded.append(naive_member_down(v, holding_cover[0]))
        return pred(v, pre, post)

    def search(net, a, start):
        holding_cover.clear()
        expanded.clear()
        with cover_retried_at(start):
            saturate(net, sorted(a.final), _back(a), DEFAULT, "witness")
        return expanded[:]

    monkeypatch.setattr(backward, "_pred", recording)
    return search


# the kept nodes at which the searches below reach their cover: before
# the first expansion, as every pruned search in the package, and on the
# retry path at 64 kept nodes, as `TestOmegaCoverPruning`
STARTS = (0, PRUNE_AFTER)


class TestKeptInsideCover:
    """Once a witness search's complete cover holds the final marking, it
    keeps no node outside that cover, however often it expands a marking."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_pump_nets(self, n, kept_after_cover):
        net = pump_net(n)
        rng = random.Random(n)
        after = {start: [] for start in STARTS}
        for _ in range(20):
            a = random_nfa(rng, rng.randint(3, 6), net.alphabet)
            for start in STARTS:
                after[start] += kept_after_cover(net, a, start)
        assert all(kept and kept.count(False) == 0 for kept in after.values())

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("bit", [1, 0])
    def test_candidate_searches(self, k, bit, kept_after_cover):
        # both searches of `verify_separator` on the benchmark's candidates
        n1, n2 = last_letter_pair(k)
        b = candidate_nfa(k, bit)
        for net, a in ((n1, b), (n2, backward_complement(b))):
            for start in STARTS:
                after = kept_after_cover(net, a, start)
                assert after and after.count(False) == 0


class TestExpandedInsideCover:
    """Once a witness search's complete cover holds the final marking, it
    expands no node outside that cover: such a node's predecessors all lie
    outside it too."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_pump_nets(self, n, expanded_after_cover):
        net = pump_net(n)
        rng = random.Random(n)
        after = {start: [] for start in STARTS}
        for _ in range(20):
            a = random_nfa(rng, rng.randint(3, 6), net.alphabet)
            for start in STARTS:
                after[start] += expanded_after_cover(net, a, start)
        assert all(expanded and expanded.count(False) == 0 for expanded in after.values())

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("bit", [1, 0])
    def test_candidate_searches(self, k, bit, expanded_after_cover):
        n1, n2 = last_letter_pair(k)
        b = candidate_nfa(k, bit)
        for net, a in ((n1, b), (n2, backward_complement(b))):
            for start in STARTS:
                after = expanded_after_cover(net, a, start)
                assert after and after.count(False) == 0


def cover_loop_nets():
    """Last-letter nets, pair products and self products for k=1..7, both
    products of every `separation_pairs` pair, and random nets over several
    shapes and norms."""
    for k in range(1, 8):
        n0, n1 = last_letter_pair(k)
        n = last_letter_net(0, k)
        yield from (n0, n1, product(n0, n1), product(label_expand(n, n), identity_labeled(n)))
    for _, n1, n2 in separation_pairs():
        yield product(n1, n2)
        yield product(label_expand(n1, n2), identity_labeled(n2))
    for seed in range(300):
        n1, n2 = random_net_pair(seed, places=2 + seed % 4, transitions=3 + seed % 5, norm=1 + seed // 4 % 3)
        yield from (n1, n2)


def separation_pairs():
    """(name, n1, n2): last-letter self pairs k=1..8, whose products are
    coverable and whose covers need the 4x retry from k=6 on, last-letter
    pairs k=1..6, the `BOTH_NONEMPTY` corpus and the random pairs of seeds
    0-199, overlapping ones included; the disjoint corpus of `conftest` is
    the first 50 disjoint ones among seeds 0-56."""
    for k in range(1, 9):
        n = last_letter_net(0, k)
        yield f"self-k{k}", n, n
    for k in range(1, 7):
        yield (f"last-letter-k{k}", *last_letter_pair(k))
    for (places, transitions), seeds in BOTH_NONEMPTY.items():
        for seed in seeds:
            n1, n2 = random_net_pair(seed, places, transitions, norm=3)
            yield f"both-nonempty-{places}-{transitions}-{seed}", n1, n2
    for seed in range(200):
        n1, n2 = random_net_pair(seed)
        yield f"random-{seed}", n1, n2


class TestUncoverableBasis:
    """`separate` refuses exactly the pairs whose product the unpruned
    `prestar_basis` finds coverable, with the cover schedule of `coverable`
    on that product, and otherwise keeps that basis."""

    def test_separate_against_unpruned_basis(self, covers):
        refused_by_cover = retried = exact_after_cover = overlapping = 0
        for name, n1, n2 in separation_pairs():
            prod = product(label_expand(n1, n2), identity_labeled(n2))
            expected = prestar_basis(prod)
            covers.clear()
            assert coverable(prod) is expected.coverable, name
            schedule = covers[:]
            covers.clear()
            if expected.coverable:
                with pytest.raises(NotDisjointError):
                    separate(n1, n2)
                overlapping += 1
                refused_by_cover += bool(schedule)
                retried += len(schedule) > 1
            else:
                assert separate(n1, n2).basis == expected.basis, name
                exact_after_cover += bool(schedule)
            assert covers == schedule, name  # `separate` asks `coverable` first
        assert refused_by_cover == 37 and retried == 3
        assert exact_after_cover == 199 and overlapping == 37

    def test_refusal_expands_under_half_the_fixpoint(self, monkeypatch):
        expanded = set()
        pred = backward._pred

        def recording(v, pre, post):
            expanded.add(v)
            return pred(v, pre, post)

        monkeypatch.setattr(backward, "_pred", recording)
        n = last_letter_net(0, 4)
        net = product(label_expand(n, n), identity_labeled(n))
        assert prestar_basis(net).iterations == len(expanded) == 364
        expanded.clear()
        assert coverable(net)
        assert len(expanded) < 364 / 2
        expanded.clear()
        with pytest.raises(NotDisjointError):
            separate(n, n)
        assert len(expanded) < 364 / 2


@functools.cache
def separator_products() -> tuple:
    """(name, product, complete forward cover, greatest invariant) for the
    separator's product of every `separation_pairs` pair.  The greatest
    invariant is the complement of the backward basis, None when the
    product is coverable."""
    out = []
    for name, n1, n2 in separation_pairs():
        prod = product(label_expand(n1, n2), identity_labeled(n2))
        cover = DownSet(prod.dimension, tuple(sorted(complete_cover(prod))))
        greatest = None if coverable(prod) else complement_upset(prestar_basis(prod).basis)
        out.append((name, prod, cover, greatest))
    return tuple(out)


class TestCoverIsAnInvariant:
    def test_disjoint_products(self):
        """On the separator's product of each disjoint pair (last-letter
        k=1..5, `BOTH_NONEMPTY` and the random seeds), the complete cover
        passes the three invariant checks and lies below the greatest
        invariant, the complement of the backward basis."""
        checked = 0
        for name, prod, cover, greatest in separator_products():
            if greatest is None or name == "last-letter-k6":
                continue
            assert check_invariant(prod, cover).passed, name
            assert all(naive_member_down(u, greatest.ideals) for u in cover.ideals), name
            checked += 1
        assert checked == 198


class TestLowerBoundBeyondCriterion7:
    @pytest.mark.parametrize("k", [7, 8])
    def test_separator_needs_2_to_the_k_states_and_verifies(self, k):
        n0, n1 = last_letter_pair(k)
        bundle = separate(n0, n1)
        assert len(minimize(determinize(bundle.separator)).states) >= 2**k
        assert verify_separator(n0, n1, bundle.separator).passed
