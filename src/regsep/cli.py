"""Command-line interface.

Exit codes: 0 success / property holds, 1 a checked property fails (e.g.
the net is coverable, the languages overlap, verification fails), 2
malformed input or an output path that cannot be written, 3 `separate` was
given non-disjoint nets, 4 an exhaustive exploration ran out of its node
budget.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import time

from . import automata, backward, fileio, generators, invariant, separator, verify
from .config import load_settings
from .errors import BudgetExceededError, InputError, NotDisjointError
from .ideals import vector_str
from .petri import LabeledPetriNet, product

log = logging.getLogger("regsep")

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_DISJOINT = 3
EXIT_BUDGET_EXCEEDED = 4


def net_digest(net: LabeledPetriNet) -> str:
    payload = repr(
        (net.places, net.alphabet, net.transitions, net.initial, net.final)
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def _cmd_cover(args: argparse.Namespace) -> int:
    net = fileio.load_net(args.net)
    result = backward.prestar_basis(net, args.settings)
    print("COVERABLE" if result.coverable else "NOT COVERABLE")
    for v in result.basis.basis:
        print(f"basis {vector_str(v)}")
    log.info("basis size %d after %d iterations", len(result.basis.basis), result.iterations)
    return EXIT_PROPERTY_FAILED if result.coverable else EXIT_OK


def _cmd_disjoint(args: argparse.Namespace) -> int:
    n1 = fileio.load_net(args.net1)
    n2 = fileio.load_net(args.net2)
    if backward.disjoint(n1, n2, args.settings):
        print("DISJOINT")
        return EXIT_OK
    print("NOT DISJOINT")
    return EXIT_PROPERTY_FAILED


def _cmd_invariant(args: argparse.Namespace) -> int:
    n1 = fileio.load_net(args.net1)
    n2 = fileio.load_net(args.net2)
    prod = product(n1, n2)
    if backward.coverable(prod, args.settings):
        print("COVERABLE: the product accepts a word, no inductive invariant exists")
        return EXIT_PROPERTY_FAILED
    result = backward.prestar_basis(prod, args.settings)
    cert = invariant.invariant_from_backward(prod, result, args.settings)
    for u in cert.down.ideals:
        print(f"ideal {vector_str(u)}")
    report = invariant.check_invariant(prod, cert.down)
    print(f"initial-contained: {'ok' if report.initial_ok else 'FAIL'}")
    print(f"final-disjoint:    {'ok' if report.final_ok else 'FAIL'}")
    print(f"successor-closed:  {'ok' if report.closed_ok else 'FAIL'}")
    for failure in report.failures:
        print(f"failure: {failure}")
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILED


def _write_automaton(a, path: str, fmt: str) -> None:
    fileio.save_automaton(a, path)
    if fmt == "dot":
        with open(path + ".dot", "w", encoding="utf-8") as fh:
            fh.write(automata.to_dot(a))


def _cmd_separate(args: argparse.Namespace) -> int:
    n1 = fileio.load_net(args.net1)
    n2 = fileio.load_net(args.net2)
    if args.contain == "first":
        n1, n2 = n2, n1
    started = time.monotonic()
    try:
        bundle = separator.separate(n1, n2, args.settings)
    except NotDisjointError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NOT_DISJOINT
    os.makedirs(args.output, exist_ok=True)
    _write_automaton(bundle.core, os.path.join(args.output, "core.aut"), args.format)
    _write_automaton(
        bundle.complement_dfa, os.path.join(args.output, "complement.aut"), args.format
    )
    _write_automaton(
        bundle.separator, os.path.join(args.output, "separator.aut"), args.format
    )
    provenance = {
        "basis": [list(v) for v in bundle.basis.basis],
        "basis_places": list(bundle.core.annotation_places),
        "ideal_count": len(bundle.certificate.down.ideals),
        "bound_base": bundle.certificate.bound.base,
        "bound_exponent": bundle.certificate.bound.exponent,
        "n1_digest": net_digest(n1),
        "n2_digest": net_digest(n2),
        "core_states": len(bundle.core.states),
        "separator_states": len(bundle.separator.states),
    }
    with open(os.path.join(args.output, "provenance.json"), "w", encoding="utf-8") as fh:
        fh.write(fileio.dumps_canonical(provenance))
    log.info(
        "separated in %.2fs: %d core states, %d separator states",
        time.monotonic() - started,
        len(bundle.core.states),
        len(bundle.separator.states),
    )
    if args.verify:
        checked = (n1, n2, bundle.separator)
        if args.level == "t2":  # the separator of the transformed nets
            checked = (bundle.w, bundle.w_det, bundle.complement_dfa)
        report = verify.verify_separator(*checked, args.settings)
        if not report.passed:
            print("verification FAILED", file=sys.stderr)
            return EXIT_PROPERTY_FAILED
        print("verified")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    n1 = fileio.load_net(args.net1)
    n2 = fileio.load_net(args.net2)
    aut = fileio.load_automaton(args.automaton)
    report = verify.verify_separator(n1, n2, aut, args.settings)
    print(f"disjointness: {'ok' if report.disjointness_ok else 'FAIL'}")
    if report.disjointness_witness is not None:
        print(f"witness in both L(net1) and L(aut): {'.'.join(report.disjointness_witness) or '(empty word)'}")
    print(f"containment:  {'ok' if report.containment_ok else 'FAIL'}")
    if report.containment_witness is not None:
        print(f"witness in L(net2) but not L(aut): {'.'.join(report.containment_witness) or '(empty word)'}")
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILED


def _cmd_sample(args: argparse.Namespace) -> int:
    net = fileio.load_net(args.net)
    words = verify.bounded_language(net, args.maxlen, args.settings)
    for w in words:
        print(".".join(w) if w else "(empty word)")
    log.info("%d words up to length %d", len(words), args.maxlen)
    return EXIT_OK


def _cmd_gen_lastletter(args: argparse.Namespace) -> int:
    net = generators.last_letter_net(args.bit, args.k)
    fileio.save_net(net, args.output)
    return EXIT_OK


def _cmd_gen_random(args: argparse.Namespace) -> int:
    n1, n2 = generators.random_net_pair(args.seed, args.places, args.transitions, args.norm)
    fileio.save_net(n1, f"{args.output}_1.net")
    fileio.save_net(n2, f"{args.output}_2.net")
    print("DISJOINT" if backward.disjoint(n1, n2, args.settings) else "NOT DISJOINT")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsep",
        description="Regular separators for Petri net coverability languages",
    )
    parser.add_argument("--config", default=None, help="path to a JSON settings file")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="decide coverability; exit 1 when coverable")
    p.add_argument("net")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("disjoint", help="decide language disjointness of two nets")
    p.add_argument("net1")
    p.add_argument("net2")
    p.set_defaults(func=_cmd_disjoint)

    p = sub.add_parser("invariant", help="print the product invariant and its check report")
    p.add_argument("net1")
    p.add_argument("net2")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("separate", help="construct a regular separator")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--level", choices=("t2", "sigma"), default="sigma")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--contain", choices=("first", "second"), default="second")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("verify", help="verify a separator against two nets")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="enumerate accepted words up to a length bound")
    p.add_argument("net")
    p.add_argument("--maxlen", type=int, default=6)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gen-lastletter", help="write one net of the last-letter family")
    p.add_argument("--bit", type=int, required=True, choices=(0, 1))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_lastletter)

    p = sub.add_parser("gen-random", help="write a seeded random net pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--places", type=int, default=3)
    p.add_argument("--transitions", type=int, default=3)
    p.add_argument("--norm", type=int, default=2)
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.settings = load_settings(args.config)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:  # reading input raises InputError, so this is output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED


if __name__ == "__main__":
    sys.exit(main())
