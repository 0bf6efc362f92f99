#!/usr/bin/env python3
"""Benchmark of regsep's public API: one workload, one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload random --seed 1 --seconds 60 --trace 0

Workloads are defined in `workloads.py`.  A set-up round is a fresh
import of `regsep`, input generation and one warm-up job.  A run sets up
three times, then runs passes over the job list until the next pass would
end after `--seconds`, always at least one.  An untraced run also takes a
set-up round at the first job boundary after every `--seconds`/20, and
keeps taking them after its last pass until `--seconds` are up; it
reports a median over time slots of `--seconds`/20 (`SetupSampler`).  The
machine's speed drifts in phases, so set-ups taken in one burst would
time one phase.  The first pass is
checked against the references of `oracle.py`; every later pass must give
the same exact counts per job, as must earlier runs of the same source on
any seed (kept under `perfbench/out/counts/`).

`--trace 0` wraps nothing and reports the end-to-end metrics.  `--trace 1`
alternates untraced passes with passes that wrap the layer functions
(`tracing.py`), at least one of each, and reports the per-layer metrics;
its spans are written to `perfbench/out/`.  Metric names and units come from
`BENCHMARK.json`.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

A job that raises, gives a wrong answer or runs past its deadline fails.
Deadlines use SIGALRM inside this process: 60 s per job, and no job may run
past 160 s after start, so a run always ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import typing
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracing
import workloads

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS = 3  # before measuring
SETUP_SPACING = 20  # an untraced run sets up once per --seconds/20
JOB_DEADLINE_S = 60.0
RUN_LIMIT_S = 160.0


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception`
    in the code under test can swallow it."""


def _alarm(_signum, _frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    job: workloads.Job
    seconds: float = 0.0
    separate_s: float = 0.0  # separate calls that return a separator
    verify_s: float = 0.0
    value: object = None  # disjoint's verdict, or the SeparatorBundle
    report: object = None  # SeparatorReport
    refused: bool = False
    error: str | None = None


@dataclass
class Pass:
    number: int
    wall: float
    outcomes: list[Outcome]
    traced: bool = False
    signatures: dict = field(default_factory=dict)
    job_times: array = field(default_factory=lambda: array("d"))


def import_regsep():
    """A fresh import of the checkout's `regsep`, so each set-up round pays it."""
    for name in [n for n in sys.modules if n == "regsep" or n.startswith("regsep.")]:
        del sys.modules[name]
    rs = importlib.import_module("regsep")
    if Path(rs.__file__).resolve().parent != SRC / "regsep":
        raise ImportError(f"regsep imported from {rs.__file__}, not from {SRC}")
    return rs, importlib.import_module("regsep.generators")


def setup_round(workload: str, seed: int):
    t0 = time.perf_counter()
    rs, gen = import_regsep()
    jobs = workloads.build(rs, gen, workload, seed)
    run_job(rs, workloads.warmup_job(rs))
    return time.perf_counter() - t0, rs, jobs


class SetupSampler:
    """Set-up rounds spread over the measured run.  A round during the run
    imports `regsep` afresh and then puts back the modules the measured
    jobs use; its own inputs are dropped.  `before` are the times of the
    rounds taken before measuring."""

    def __init__(self, workload: str, seed: int, spacing: float, before: list[float]):
        self.workload, self.seed, self.spacing = workload, seed, spacing
        self.before = before
        self.rounds: list[tuple[float, float]] = []  # (start, seconds)
        self.start = self.last = time.perf_counter()

    def take(self) -> None:
        self.last = time.perf_counter()
        # a round starts from a collected heap, whichever job ran before it
        gc.collect()
        in_use = {n: m for n, m in sys.modules.items() if n == "regsep" or n.startswith("regsep.")}
        seconds, _, _ = setup_round(self.workload, self.seed)
        for name in [n for n in sys.modules if n == "regsep" or n.startswith("regsep.")]:
            del sys.modules[name]
        sys.modules.update(in_use)
        # typing's subscription caches hold the round's classes, and through
        # them its modules; cleared, so memory does not grow with the rounds
        for clear in getattr(typing, "_cleanups", ()):
            clear()
        self.rounds.append((self.last, seconds))
        gc.collect()

    def between_jobs(self) -> float:
        """Take a round if one is due; the seconds it took."""
        if time.perf_counter() - self.last < self.spacing:
            return 0.0
        t0 = time.perf_counter()
        self.take()
        return time.perf_counter() - t0

    def fill(self, seconds: float) -> None:
        """Take rounds back to back until `seconds` after the start."""
        longest = max(self.before)
        while time.perf_counter() - self.start + longest <= seconds:
            self.take()

    def count(self) -> int:
        return len(self.before) + len(self.rounds)

    def median(self) -> float:
        """The median over slots of `spacing` seconds of each slot's median
        round, the rounds before measuring being one more slot: back-to-back
        rounds at the end of a run weigh no more than the time they cover."""
        slots = defaultdict(list)
        for start, seconds in self.rounds:
            slots[int((start - self.start) / self.spacing)].append(seconds)
        return statistics.median(
            [statistics.median(self.before)] + [statistics.median(v) for v in slots.values()]
        )


def run_job(rs, job: workloads.Job) -> Outcome:
    out = Outcome(job)
    t0 = time.perf_counter()
    if job.kind == "decide":
        out.value = rs.disjoint(job.n1, job.n2)
    elif job.kind == "separate":
        try:
            out.value = rs.separate(job.n1, job.n2)
        except rs.NotDisjointError:
            out.refused = True
        else:
            t1 = time.perf_counter()
            out.separate_s = t1 - t0
            out.report = rs.verify_separator(job.n1, job.n2, out.value.separator)
            out.verify_s = time.perf_counter() - t1
    else:
        out.report = rs.verify_separator(job.n1, job.n2, job.candidate)
        out.verify_s = time.perf_counter() - t0
    out.seconds = time.perf_counter() - t0
    return out


def run_job_with_deadline(rs, job: workloads.Job) -> Outcome:
    limit = min(JOB_DEADLINE_S, RUN_LIMIT_S - (time.perf_counter() - T_START))
    if limit <= 0:
        return Outcome(job, error="not started: run time limit reached")
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return run_job(rs, job)
    except DeadlineExceeded:
        return Outcome(job, seconds=time.perf_counter() - t0, error=f"deadline of {limit:g} s missed")
    except Exception as exc:  # a failing job is counted, the run goes on
        return Outcome(job, seconds=time.perf_counter() - t0, error=f"raised {exc!r}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(rs, jobs, number: int, tracer: tracing.Tracer | None = None,
             sampler: SetupSampler | None = None) -> Pass:
    """One pass over the jobs; set-up rounds between them are not part of
    its wall."""
    gc.collect()
    outcomes = []
    paused = 0.0
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if sampler is not None and i > 0:
            paused += sampler.between_jobs()
        if tracer is not None:
            tracer.job = (number, job.id)
        outcomes.append(run_job_with_deadline(rs, job))
    wall = time.perf_counter() - t0 - paused
    return Pass(number, wall, outcomes, traced=tracer is not None)


def signature(out: Outcome) -> dict:
    """The exact, deterministic facts of one job's output."""
    if out.error is not None:
        return {"error": True}
    if out.job.kind == "decide":
        return {"disjoint": out.value}
    if out.refused:
        return {"refused": True}
    sig = {
        "passed": out.report.passed,
        "disjointness_witness": out.report.disjointness_witness,
        "containment_witness": out.report.containment_witness,
    }
    if out.job.kind == "separate":
        sig["separator_states"] = oracle.min_dfa_states(out.value.separator)
    return sig


def oracle_errors(out: Outcome, sig: dict) -> list[str]:
    """Check one output against a reference not computed by `regsep`."""
    job = out.job
    if job.family == "lastletter" and job.kind == "decide":
        # the two languages differ in the k-th last letter of the 0/1 core
        return [] if out.value is True else ["disjoint() says the pair intersects"]
    if job.family == "lastletter":
        if out.refused:
            return ["separate() refused a disjoint pair"]
        errors = oracle.check_last_letter_separator(out.value.separator, job.k)
        if not out.report.passed:
            errors.append("verify_separator() rejects the separator")
        if sig["separator_states"] < 2**job.k:
            errors.append(f"minimal separator DFA has {sig['separator_states']} < 2^k states")
        return errors
    if job.family == "self":
        word = ("c",) + ("0",) * job.k + ("c",)
        if not oracle.net_accepts(job.n1, word):
            return ["benchmark input error: the net rejects its own word"]
        return [] if out.refused else ["separate(n, n) did not refuse"]
    if job.family == "random":
        if out.refused:
            if oracle.common_word(job.n1, job.n2) is None:
                return ["separate() refused, but no common word was found"]
            return []
        errors = oracle.check_random_separator(out.value.separator, job.n1, job.n2)
        if not out.report.passed:
            errors.append("verify_separator() rejects the separator")
        return errors
    # a candidate NFA for the bit-1 language: exact for bit 1, swapped for bit 0
    if job.bit == 1:
        return [] if out.report.passed else ["verify_separator() rejects the exact candidate"]
    errors = []
    rep = out.report
    if rep.disjointness_ok or rep.containment_ok:
        errors.append("verify_separator() accepts part of the swapped candidate")
    for word, bit in ((rep.disjointness_witness, 0), (rep.containment_witness, 1)):
        if word is None or not oracle.last_letter_regex(bit, job.k).fullmatch("".join(word)):
            errors.append(f"witness {word!r} is not in c{{0,1}}*{bit}{{0,1}}^{job.k - 1}c")
    return errors


def trace_counts(tracer: tracing.Tracer) -> dict:
    """Exact counts per (pass, job) read off the spans."""
    keys = {
        ("backward.prestar_basis", None): "backward.prestar_calls",
        ("backward.prestar_basis", "iterations"): "backward.iterations",
        ("ideals.complement_upset", "ideals"): "ideals.ideal_count",
        ("separator.build_core_automaton", "states"): "separator.core_states",
        ("automata.determinize", "states"): "automata.determinize_states",
    }
    per_job: dict = defaultdict(lambda: dict.fromkeys(keys.values(), 0))
    for span in tracer.spans:
        counts = per_job[span.job]
        for (name, key), metric in keys.items():
            if span.name == name:
                counts[metric] += 1 if key is None else span.counts.get(key, 0)
    return per_job


def layer_metrics(tracer: tracing.Tracer, p: Pass, untraced_wall: float) -> dict:
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    backward_work = 0
    for span, st in zip(tracer.spans, tracer.self_times()):
        if span.job[0] != p.number:
            continue
        self_s[span.name] += st
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name, key] += value
        if span.name == "backward.prestar_basis" and span.counts:
            backward_work += span.counts["iterations"] * span.counts["transitions"]
    self_sum = sum(self_s.values())
    return {
        "backward.prestar_s": self_s["backward.prestar_basis"],
        "backward.prestar_calls": calls["backward.prestar_basis"],
        "backward.iterations": counts["backward.prestar_basis", "iterations"],
        "backward.basis_size": counts["backward.prestar_basis", "basis_size"],
        "backward.kept_ratio": counts["backward.prestar_basis", "basis_size"] / max(backward_work, 1),
        "ideals.complement_s": self_s["ideals.complement_upset"],
        "ideals.complement_calls": calls["ideals.complement_upset"],
        "ideals.ideal_count": counts["ideals.complement_upset", "ideals"],
        "invariant.check_s": self_s["invariant.check_invariant"],
        "invariant.check_calls": calls["invariant.check_invariant"],
        "invariant.from_backward_self_s": self_s["invariant.invariant_from_backward"],
        "separator.core_s": self_s["separator.build_core_automaton"],
        "separator.core_states": counts["separator.build_core_automaton", "states"],
        "separator.core_edges": counts["separator.build_core_automaton", "edges"],
        "separator.separate_self_s": self_s["separator.separate"],
        "separator.separate_s": sum(o.separate_s for o in p.outcomes),
        "separator.separator_states": sum(
            s.get("separator_states", 0) for s in p.signatures.values()
        ),
        "automata.witness_s": self_s["automata.net_automaton_intersection_witness"],
        "automata.witness_calls": calls["automata.net_automaton_intersection_witness"],
        "automata.witnesses_found": counts["automata.net_automaton_intersection_witness", "found"],
        "automata.determinize_s": self_s["automata.determinize"],
        "automata.determinize_states": counts["automata.determinize", "states"],
        "automata.minimize_s": self_s["automata.minimize"],
        "automata.minimize_states": counts["automata.minimize", "states"],
        "automata.complement_s": self_s["automata.complement"],
        "automata.relabel_s": self_s["automata.relabel"],
        "verify.self_s": self_s["verify.verify_separator"],
        "verify.verify_s": sum(o.verify_s for o in p.outcomes),
        "petri.product_s": self_s["petri.product"],
        "petri.product_transitions": counts["petri.product", "transitions"],
        "petri.label_expand_s": self_s["petri.label_expand"],
        "trace.wall_s": p.wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": p.wall / untraced_wall,
        "trace.self_sum_s": self_sum,
        "trace.accounted_ratio": self_sum / p.wall,
    }


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    """The pass wall is averaged over the run's passes: the machine's speed
    shifts in phases of 10-30 s, and a median over a few passes jumps
    between the phases where a mean moves with their share."""
    times = [t for p in passes for t in p.job_times]
    mean = statistics.fmean
    return {
        "wall_s": mean(p.wall for p in passes),
        "setup_s": setup_s,
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "regsep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def compare_counts(path: Path, current: dict) -> list[str]:
    """Compare with the counts earlier runs of the same source recorded,
    then store the union."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    errors = []
    for job_id, counts in current.items():
        before = stored.setdefault(job_id, {})
        for key, value in counts.items():
            if key in before and before[key] != value:
                errors.append(f"{job_id}: {key} is {value}, an earlier run had {before[key]}")
            before[key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True, indent=0))
    os.replace(tmp, path)
    return errors


def jsonable(sig: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in sig.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    setup_times = []
    for _ in range(SETUP_ROUNDS):
        seconds, rs, jobs = setup_round(args.workload, args.seed)
        setup_times.append(seconds)

    errors = oracle.self_test(rs, workloads.candidate_nfa)
    failed_ids: set = set()
    reference: dict = {}
    passes: list[Pass] = []
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else SetupSampler(
        args.workload, args.seed, args.seconds / SETUP_SPACING, setup_times
    )
    t_measure = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, so the
        # overhead compares passes from the same stretch of time
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        if sampler is not None and passes:
            sampler.between_jobs()
        p = run_pass(rs, jobs, len(passes), tracer if traced else None, sampler)
        if traced:
            tracer.uninstall()
        for out in p.outcomes:
            sig = p.signatures[out.job.id] = signature(out)
            if out.error is not None:
                failed_ids.add((p.number, out.job.id))
                errors.append(f"{out.job.id}: {out.error}")
            elif not passes:
                reference[out.job.id] = sig
                wrong = oracle_errors(out, sig)
                if wrong:
                    failed_ids.add((p.number, out.job.id))
                    errors.extend(f"{out.job.id}: {e}" for e in wrong)
            elif sig != reference.get(out.job.id):
                failed_ids.add((p.number, out.job.id))
                errors.append(f"{out.job.id}: pass {p.number} gave {sig}, pass 0 gave "
                              f"{reference.get(out.job.id)}")
        p.job_times = array("d", (out.seconds for out in p.outcomes))
        if p.traced:
            for out in p.outcomes:
                out.value = out.report = None
        else:
            # only traced passes are read again; keeping the others' outcomes
            # would make peak_rss_mb grow with the number of passes
            p.outcomes, p.signatures = [], {}
        passes.append(p)
        elapsed = time.perf_counter() - t_measure
        need_traced = tracer is not None and not any(q.traced for q in passes)
        if elapsed + p.wall > args.seconds and not need_traced:
            break
        if time.perf_counter() - T_START + p.wall > RUN_LIMIT_S:
            break
    if sampler is not None:
        # the rest of --seconds goes to set-up rounds, so the median set-up
        # time covers the whole run even when a pass is most of it
        sampler.fill(args.seconds)

    # exact counts of the jobs that never failed: every pass of this run,
    # and earlier runs of this source
    digest = source_digest()
    failed_jobs = {job_id for _, job_id in failed_ids}
    exact = {
        job_id: jsonable(sig) for job_id, sig in reference.items() if job_id not in failed_jobs
    }
    if tracer is not None:
        by_job: dict = {}
        for (number, job_id), counts in trace_counts(tracer).items():
            if job_id in failed_jobs:
                continue
            if by_job.setdefault(job_id, counts) != counts:
                errors.append(f"{job_id}: pass {number} counts {counts} differ from {by_job[job_id]}")
        for job_id, counts in by_job.items():
            exact.setdefault(job_id, {}).update(counts)
    errors += compare_counts(
        OUT / "counts" / f"{args.workload}-{digest[:16]}.json", exact
    )

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "src_digest": digest[:16], "passes": len(passes),
        "jobs_per_pass": len(jobs), "job_samples": sum(len(p.job_times) for p in passes),
        "pass_walls": [round(p.wall, 4) for p in passes],
        "setup_rounds": sampler.count() if sampler else len(setup_times),
    }
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        if not traced:
            print("no traced pass fitted in the run time limit", file=sys.stderr)
            return 1
        # each traced pass against the untraced pass just before it
        per_pass = [layer_metrics(tracer, p, passes[p.number - 1].wall) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", env)
    else:
        values = end_to_end_metrics(passes, sampler.median())

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    attempted = sum(len(p.job_times) for p in passes)
    env["failed_frac"] = len(failed_ids) / attempted
    for line in errors[:20]:
        print("error:", line, file=sys.stderr)
    if len(errors) > 20:
        print(f"error: ... {len(errors) - 20} more", file=sys.stderr)
    print("# " + json.dumps(env))
    for m in wanted:
        print(f"# {m['name']:32} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed_ids),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot run the benchmark: {exc!r}", file=sys.stderr)
        sys.exit(2)
