"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

All comparisons are exact (no tolerances); each criterion enforces its own
wall-clock budget.
"""

from __future__ import annotations

import random
import time

from regsep.automata import determinize, member, minimize
from regsep.backward import prestar_basis
from regsep.generators import last_letter_pair, random_net_pair
from regsep.ideals import OMEGA, complement_upset, member_down, member_up, omega_leq
from regsep.invariant import check_invariant
from regsep.petri import product
from regsep.separator import DEAD_STATE, separate
from regsep.verify import bounded_language, verify_separator

from .conftest import make_worked_pair
from .oracles import all_markings, all_words, forward_coverable, random_upset

W = OMEGA


def _report(capsys, number: int, description: str, ok: bool, elapsed: float) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_ideal_calculus_exactness(capsys):
    started = time.perf_counter()
    ok = True
    rng = random.Random(20240801)
    for _ in range(200):
        d = rng.randint(1, 4)
        up = random_upset(rng, d, max_basis=4, norm=4)
        down = complement_upset(up)
        for m in all_markings(d, 6):
            if member_up(m, up) == member_down(m, down):
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(capsys, 1, "complement satisfies the exhaustive XOR membership law", ok, elapsed)
    assert ok


def test_criterion_2_backward_engine_oracle_equivalence(capsys):
    started = time.perf_counter()
    conclusive = 0
    ok = True
    seed = 0
    while conclusive < 100 and seed < 400:
        n1, n2 = random_net_pair(
            seed, places=(seed % 4) + 1, transitions=seed % 5, norm=3
        )
        for net in (n1, n2):
            expected = forward_coverable(net, cap=12)
            if expected is None:
                continue  # cap hit: excluded as inconclusive
            conclusive += 1
            if prestar_basis(net).coverable != expected:
                ok = False
        seed += 1
    elapsed = time.perf_counter() - started
    ok = ok and conclusive >= 100 and elapsed < 60.0
    _report(
        capsys,
        2,
        f"coverability agrees with the bounded forward oracle on {conclusive} nets",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_3_invariant_discharge(disjoint_corpus, capsys):
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for _seed, _n1, _n2, bundle in disjoint_corpus:
        t0 = time.perf_counter()
        report = check_invariant(product(bundle.w, bundle.w_det), bundle.certificate.down)
        per_instance = time.perf_counter() - t0
        worst = max(worst, per_instance)
        if not report.passed or per_instance >= 5.0:
            ok = False
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        3,
        f"all {len(disjoint_corpus)} certificates pass the three invariant checks"
        f" (worst instance {worst:.2f}s)",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_4_worked_example_reproduction(capsys):
    started = time.perf_counter()
    n1, n2 = make_worked_pair()
    bundle = separate(n1, n2)
    ok = set(bundle.basis.basis) == {(2, 1), (1, 2), (0, 3)}
    ok = ok and set(bundle.certificate.down.ideals) == {(0, 2), (1, 1), (W, 0)}
    ok = ok and len(bundle.core.states) == 4 and DEAD_STATE in bundle.core.states
    for word in all_words(bundle.core.alphabet, 8):
        if member(bundle.core, word) != (len(word) >= 2):
            ok = False
    ok = ok and verify_separator(n1, n2, bundle.separator).passed
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 2.0
    _report(
        capsys,
        4,
        "worked pair reproduces basis, ideals, 4-state core, verified separator",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_5_end_to_end_separation(disjoint_corpus, capsys):
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for seed, n1, n2, _bundle in disjoint_corpus:
        t0 = time.perf_counter()
        bundle = separate(n1, n2)
        report = verify_separator(n1, n2, bundle.separator)
        inst_ok = report.passed
        for word in bounded_language(n2, 8):
            if not member(bundle.separator, word):
                inst_ok = False
        for word in bounded_language(n1, 8):
            if member(bundle.separator, word):
                inst_ok = False
        per_instance = time.perf_counter() - t0
        worst = max(worst, per_instance)
        if not inst_ok or per_instance >= 60.0:
            ok = False
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        5,
        f"{len(disjoint_corpus)} seeded pairs separate, verify exactly, and pass"
        f" length-8 cross-checks (worst instance {worst:.2f}s)",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_6_bound_conformance(disjoint_corpus, capsys):
    started = time.perf_counter()
    ok = True
    for _seed, _n1, _n2, bundle in disjoint_corpus:
        basis = bundle.basis
        cert = bundle.certificate
        prod = product(bundle.w, bundle.w_det)
        if not prod.transitions:
            # degenerate convention: no transitions means the basis is
            # exactly the final marking and the bound is defined as zero
            if basis.basis != (prod.final,):
                ok = False
            continue
        if not cert.bound.at_least(len(basis.basis)):
            ok = False
        if not cert.bound.at_least(basis.norm()):
            ok = False
        if len(cert.down.ideals) > cert.bound_ideal_count:
            ok = False
        if cert.bound_ideal_count != (basis.norm() + 2) ** prod.dimension:
            ok = False
    # the worked example participates as the criterion-4 instance
    n1, n2 = make_worked_pair()
    bundle = separate(n1, n2)
    ok = ok and bundle.certificate.bound.at_least(len(bundle.basis.basis))
    ok = ok and bundle.certificate.bound.at_least(bundle.basis.norm())
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        6,
        "basis cardinality/norms and ideal counts stay within the documented bounds",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_7_scaled_lower_bound(capsys):
    started = time.perf_counter()
    ok = True
    sizes = {}
    k6_elapsed = 0.0
    for k in range(2, 7):
        t0 = time.perf_counter()
        n0, n1 = last_letter_pair(k)
        # `separate` refuses non-disjoint inputs, so success doubles as the
        # disjointness verdict
        bundle = separate(n0, n1)
        if not verify_separator(n0, n1, bundle.separator).passed:
            ok = False
        small = minimize(determinize(bundle.separator))
        sizes[k] = len(small.states)
        if len(small.states) < 2**k:
            ok = False
        per_instance = time.perf_counter() - t0
        if k == 6:
            k6_elapsed = per_instance
            if per_instance >= 300.0:
                ok = False
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        7,
        f"minimal DFA sizes {sizes} all reach 2^k; k=6 in {k6_elapsed:.0f}s",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_8_runtime_property_suite(disjoint_corpus, capsys):
    started = time.perf_counter()
    ok = True
    for _seed, _n1, _n2, bundle in disjoint_corpus:
        core = bundle.core
        w, w_det = bundle.w, bundle.w_det
        prod = product(w, w_det)
        annotations = dict(core.annotations)
        table: dict[tuple[str, str], set[str]] = {}
        for s, letter, r in core.transitions:
            table.setdefault((s, letter), set()).add(r)

        def states_after(word: tuple[str, ...]) -> set[str]:
            current = set(core.initial)
            for letter in word:
                current = set().union(
                    *(table.get((s, letter), set()) for s in current)
                )
            return current

        det_transition = {t.label: t for t in w_det.transitions}

        def det_run(word: tuple[str, ...]):
            m = w_det.initial
            for letter in word:
                t = det_transition.get(letter)
                if t is None or any(x < p for x, p in zip(m, t.pre)):
                    return None
                m = tuple(x - p + q for x, p, q in zip(m, t.pre, t.post))
            return m

        n1_dim = len(w.places)

        # domination: joint bounded exploration of the product; every
        # reachable marking is covered by some reached ordinary state
        frontier: dict[tuple[str, ...], set[tuple[int, ...]]] = {
            (): {prod.initial}
        }
        for _depth in range(7):
            for word, markings in frontier.items():
                ordinary = [
                    s for s in states_after(word) if s in annotations
                ]
                for m in markings:
                    if not any(
                        omega_leq(m, annotations[s]) for s in ordinary
                    ):
                        ok = False
            if _depth == 6:
                break
            nxt: dict[tuple[str, ...], set[tuple[int, ...]]] = {}
            for word, markings in frontier.items():
                for t in prod.transitions:
                    for m in markings:
                        if all(x >= p for x, p in zip(m, t.pre)):
                            nxt.setdefault(word + (t.label,), set()).add(
                                tuple(
                                    x - p + q
                                    for x, p, q in zip(m, t.pre, t.post)
                                )
                            )
            frontier = nxt

        # deterministic-side tracking, including dead runs, on every word
        for word in all_words(core.alphabet, 6):
            reached = states_after(word)
            if not reached:
                continue
            m2 = det_run(word)
            for s in reached:
                if s in annotations:
                    if m2 is not None and not omega_leq(
                        m2, annotations[s][n1_dim:]
                    ):
                        ok = False
                elif s == DEAD_STATE and m2 is not None:
                    ok = False

        # containment: the expanded first net's words are accepted
        for word in bounded_language(w, 6):
            if not member(core, word):
                ok = False
        # disjointness: the deterministic second net's words are rejected
        for word in bounded_language(w_det, 6):
            if member(core, word):
                ok = False
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        8,
        "domination, deterministic-side tracking, containment and disjointness"
        f" hold to length 6 on {len(disjoint_corpus)} instances",
        ok,
        elapsed,
    )
    assert ok
