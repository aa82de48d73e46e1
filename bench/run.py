"""Signal-test benchmark: one workload of ``pqclone signal-test``, in-process.

    python3 bench/run.py --workload legal_n2 --seed 1 --seconds 15 --trace 0

Run it from the repository root. It imports pqclone from ``src/`` beside
this directory and, in one process and one thread, calls
``pqclone.cli.main(["signal-test", CONFIG, "--seed", S, ...])`` again and
again until ``--seconds`` have passed. Invocation k uses
``S = seed * SEED_STRIDE + k``; the first is a warm-up, checked but not
timed. Every invocation's ``tally.json`` and ``stats.json`` must pass
``checks.check_output``; any invocation that does not counts as failed.

``--trace 0`` gives the end-to-end metrics of the run's best invocation.
The only hooks are three once-per-call timers, on
``config.build_protocol``, ``signalling.run_protocol`` and
``signalling.run_channel``.

``--trace 1`` gives the per-layer metrics. Each untraced invocation is
followed by a traced one with the same seed, whose output bytes must match.
A traced invocation wraps every entry point listed in ``layers`` at the
binding its caller looks up, records one span per call in memory, and
derives counts, per-call times and self times from the spans.
``trace.overhead_ratio`` is traced over untraced best ``run_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, the failures and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import Expectation, check_output
from selftest import run_selftests
from spans import StageTimer, Tracer, patched, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_run"  # invocation outputs; removed at exit


@dataclass(frozen=True)
class Workload:
    config: Path  # mu, states, machine and A2 basis come from here
    trials: int  # pairs per setting, passed as --trials
    pairs_per_bit: int  # channel block length, passed as --pairs-per-bit


# Sizes are chosen so that one invocation takes well under a second on a
# 2-core box, which leaves tens of timed invocations per run for the medians.
WORKLOADS = {
    # Illegal cloner, N=2, mu=48: no machine to build, product-form
    # verification, a large channel phase; shows the readable bit.
    "illegal_n2": Workload(ROOT / "configs" / "illegal_n2.json", 2000, 200),
    # Kraus machine, N=2, mu=6, joint dim 64: per-pair Python overhead.
    "legal_n2": Workload(ROOT / "configs" / "legal_n2.json", 2000, 50),
    # Kraus machine, N=3, mu=8, joint dim 6561: array work per pair and
    # tensor powers at set-up.
    "legal_n3_wide": Workload(BENCH_DIR / "legal_n3_wide.json", 600, 20),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "protocol_pairs_per_s": "pairs/s",
    "channel_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.build_protocol.s": "s",
    "pqcm.construct_machine.s": "s",
    "pqcm.max_uniform_gamma.s": "s",
    "qcore.is_psd.calls": "count",
    "entangle.alice_measure.calls": "count",
    "entangle.alice_measure.us_p50": "us",
    "entangle.alice_measure.us_p99": "us",
    "qcore.measure_subsystem.us_p50": "us",
    "qcore.SeededRng.calls": "count",
    "qcore.SeededRng.us_p50": "us",
    "pqcm.apply_machine.calls": "count",
    "pqcm.apply_machine.us_p50": "us",
    "pqcm.apply_machine.us_p99": "us",
    "pqcm.apply_machine.success_ratio": "ratio",
    "pqcm.illegal_clone.calls": "count",
    "pqcm.illegal_clone.us_p50": "us",
    "pqcm.illegal_clone.junk_ratio": "ratio",
    "signalling.group_verify.calls.copies": "count",
    "signalling.group_verify.calls.joint": "count",
    "signalling.group_verify.calls.junk": "count",
    "signalling.group_verify.us_p50.copies": "us",
    "signalling.group_verify.us_p50.joint": "us",
    "signalling.group_verify.us_p99.copies": "us",
    "signalling.group_verify.us_p99.joint": "us",
    "signalling.group_verify.phi_ratio": "ratio",
    "signalling.group_verify.joint_bytes_computed": "B/call",
    "signalling.run_protocol.self_s": "s",
    "signalling.run_channel.self_s": "s",
    "signalling.stats_from_tally.s": "s",
    "signalling.analytic_no_signal_certificate.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The timed end-to-end metrics and how a run reports each: its best
# invocation. Contention from other tenants of a shared host only ever slows
# an invocation and comes in bursts of seconds to minutes, so the best
# invocation of a run varies far less from run to run than the median does.
BEST = {
    "run_s": min,
    "setup_s": min,
    "protocol_pairs_per_s": max,
    "channel_pairs_per_s": max,
}
MAX_REPORTED_PROBLEMS = 5
SEED_STRIDE = 100_000  # more invocations than any run makes
VERIFY = "signalling.group_verify"


def layers(pq):
    """(span name, module, attribute, tag) for every traced entry point.

    Each is patched where its caller looks it up: the CLI reaches config,
    signalling and pqcm through module attributes, the protocol loop uses
    the names imported into ``signalling``, and ``entangle`` / ``pqcm``
    call ``qcore`` through the module.
    """

    def verify_tag(args, column):
        clones = args[0]
        computed = 0
        if clones.kind == "joint":  # each clone test sweeps the whole joint ket
            computed = clones.copies * clones.state.amplitudes.nbytes
        return clones.kind, column == pq.signalling.PHI, computed

    return [
        ("config.build_protocol", pq.config, "build_protocol", None),
        ("pqcm.max_uniform_gamma", pq.pqcm, "max_uniform_gamma", None),
        ("pqcm.construct_machine", pq.pqcm, "construct_machine", None),
        ("qcore.is_psd", pq.qcore, "is_psd", None),
        ("signalling.run_protocol", pq.signalling, "run_protocol", None),
        ("signalling.run_channel", pq.signalling, "run_channel", None),
        ("signalling.stats_from_tally", pq.signalling, "stats_from_tally", None),
        (
            "signalling.analytic_no_signal_certificate",
            pq.signalling,
            "analytic_no_signal_certificate",
            None,
        ),
        ("qcore.SeededRng", pq.signalling, "SeededRng", None),
        ("entangle.alice_measure", pq.signalling, "alice_measure", None),
        ("qcore.measure_subsystem", pq.qcore, "measure_subsystem", None),
        ("pqcm.apply_machine", pq.signalling, "apply_machine", lambda a, r: r[0]),
        (
            "pqcm.illegal_clone",
            pq.signalling,
            "illegal_clone",
            lambda a, r: r.kind == "junk",
        ),
        (VERIFY, pq.signalling, "group_verify", verify_tag),
    ]


class Pqclone:
    """The pqclone modules of the checkout, imported from ``src/``."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        from pqclone import cli, config, entangle, pqcm, qcore, signalling

        if Path(cli.__file__).resolve().parent != (src / "pqclone").resolve():
            raise ImportError(f"pqclone was imported from {cli.__file__}, not {src}")
        self.cli, self.config, self.entangle = cli, config, entangle
        self.pqcm, self.qcore, self.signalling = pqcm, qcore, signalling


def expectation(pq: Pqclone, workload: Workload) -> tuple[Expectation, int]:
    """What every output of the workload must satisfy, and its channel pairs.

    For a legal machine the exact discard rate per setting is
    1 - sum_m p_m ||A psi_m||^2 over Alice's induced ensemble.
    """
    import numpy as np

    run = pq.config.RunConfig.load(workload.config)
    protocol = pq.config.build_protocol(run, workload.config.parent)
    n = protocol.n
    legal = run.machine.get("kind") == "legal"
    discard_ref = None
    if legal:
        kraus = protocol.machine.kraus_success
        shared = pq.entangle.build_shared_state(protocol.bob_states)
        discard_ref = []
        for basis in (pq.entangle.AliceBasis.computational(n), protocol.a2_basis):
            members = pq.entangle.induced_ensemble(shared, basis).members
            success = sum(
                p * float(np.linalg.norm(kraus @ ket.amplitudes)) ** 2
                for ket, p in members
            )
            discard_ref.append(1.0 - success)
        discard_ref = tuple(discard_ref)
    expect = Expectation(
        n=n, trials=workload.trials, legal=legal, discard_ref=discard_ref
    )
    return expect, run.message_bits * workload.pairs_per_bit


class Bench:
    """Invokes one workload again and again and counts failed invocations.

    Every invocation gets its own ``--seed``, derived from the workload
    seed, so one run samples many seeds. A traced invocation
    reuses the seed of the untraced one before it and must reproduce its
    output bytes.
    """

    def __init__(self, pq: Pqclone, workload: Workload, out_dir: Path):
        self.pq = pq
        self.workload = workload
        self.expect, self.channel_pairs = expectation(pq, workload)
        self.protocol_pairs = 2 * workload.trials
        self.out_dir = out_dir
        self.digests: dict[int, str] = {}  # sha256 of tally+stats per seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

        self.timer = StageTimer()
        self.timer_hooks = [
            (module, attr, self.timer.wrap(attr, getattr(module, attr)))
            for module, attr in (
                (pq.config, "build_protocol"),
                (pq.signalling, "run_protocol"),
                (pq.signalling, "run_channel"),
            )
        ]
        self.tracer = Tracer()
        self.trace_hooks = [
            (module, attr, self.tracer.wrap(name, getattr(module, attr), tag))
            for name, module, attr, tag in layers(pq)
        ]
        self.traced_main = self.tracer.wrap("cli.main", pq.cli.main)

    def _argv(self, seed: int) -> list[str]:
        return [
            "signal-test",
            str(self.workload.config),
            "--seed",
            str(seed),
            "--trials",
            str(self.workload.trials),
            "--pairs-per-bit",
            str(self.workload.pairs_per_bit),
            "--format",
            "json",
            "--out",
            str(self.out_dir),
        ]

    def _fail(self, what: str, seed: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{what} invocation, seed {seed}: {message}")

    def _invoke(self, what: str, main, hooks, seed: int) -> tuple[float, float] | None:
        """One ``cli.main`` call; its (start, end), or None when it failed."""
        self.attempted += 1
        for name in ("tally.json", "stats.json"):
            (self.out_dir / name).unlink(missing_ok=True)
        argv = self._argv(seed)
        sink = io.StringIO()
        gc.collect()
        try:
            with patched(hooks), contextlib.redirect_stdout(
                sink
            ), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                code = main(argv)
                end = time.perf_counter()
        except Exception as exc:  # a crash of the program is a failed invocation
            self._fail(what, seed, f"raised {type(exc).__name__}: {exc}")
            return None
        if code != 0:
            output = sink.getvalue().strip()[-300:]
            self._fail(what, seed, f"exit code {code}: {output}")
            return None
        try:
            tally = (self.out_dir / "tally.json").read_bytes()
            stats = (self.out_dir / "stats.json").read_bytes()
            problems = check_output(json.loads(tally), json.loads(stats), self.expect)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        if not problems:
            digest = hashlib.sha256(tally + stats).hexdigest()
            if self.digests.setdefault(seed, digest) != digest:
                problems = ["sha256 of tally+stats differs from the untraced run's"]
        if problems:
            self._fail(what, seed, "; ".join(problems))
            return None
        return start, end

    def untraced(self, seed: int) -> dict | None:
        """One invocation under the stage timers; its end-to-end sample."""
        self.timer.marks.clear()
        span = self._invoke("untraced", self.pq.cli.main, self.timer_hooks, seed)
        if span is None:
            return None
        start, end = span
        marks = self.timer.marks
        if len(marks) != len(self.timer_hooks):
            self._fail("untraced", seed, f"only {sorted(marks)} were called")
            return None
        build, protocol, channel = (
            marks[k] for k in ("build_protocol", "run_protocol", "run_channel")
        )
        return {
            "build_protocol_s": build[1] - build[0],
            "run_s": end - start,
            "setup_s": protocol[0] - start,
            "protocol_pairs_per_s": self.protocol_pairs / (protocol[1] - protocol[0]),
            "channel_pairs_per_s": self.channel_pairs / (channel[1] - channel[0]),
        }

    def traced(self, seed: int) -> tuple[float, list] | None:
        """One invocation with every layer wrapped; its run_s and spans."""
        span = self._invoke("traced", self.traced_main, self.trace_hooks, seed)
        spans = self.tracer.take()
        if span is None:
            return None
        return span[1] - span[0], spans


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile_us(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def layer_metrics(traced_runs: list, overhead: float) -> dict:
    """Per-layer metrics from the spans of every traced invocation.

    Counts and per-invocation times are medians over invocations; per-call
    percentiles and ratios pool the calls of all traced invocations.
    ``group_verify`` spans also count under ``<name>.<clone kind>``.
    """
    run_calls, run_total, run_own = [], [], []
    durations, tags = defaultdict(list), defaultdict(list)
    for _, spans in traced_runs:
        calls, total, own = Counter(), Counter(), Counter()
        for span, self_s in zip(spans, self_times(spans)):
            keys = [span.name]
            if span.name == VERIFY:
                keys.append(f"{VERIFY}.{span.tag[0]}")
            for key in keys:
                calls[key] += 1
                total[key] += span.end - span.start
                own[key] += self_s
                durations[key].append(span.end - span.start)
                tags[key].append(span.tag)
        run_calls.append(calls)
        run_total.append(total)
        run_own.append(own)

    def per_run(counters, key):
        return float(_median([c[key] for c in counters]))

    def us(key, q):
        return _percentile_us(durations[key], q)

    def share(key, test):
        flags = [test(t) for t in tags[key]]
        return sum(flags) / len(flags) if flags else 0.0

    joint_bytes = [t[2] for t in tags[f"{VERIFY}.joint"]]
    metrics = {
        "trace.overhead_ratio": overhead,
        "qcore.is_psd.calls": per_run(run_calls, "qcore.is_psd"),
        "pqcm.apply_machine.success_ratio": share("pqcm.apply_machine", bool),
        "pqcm.illegal_clone.junk_ratio": share("pqcm.illegal_clone", bool),
        f"{VERIFY}.phi_ratio": share(VERIFY, lambda t: t[1]),
        f"{VERIFY}.joint_bytes_computed": (
            sum(joint_bytes) / len(joint_bytes) if joint_bytes else 0.0
        ),
        "cli.main.self_s": per_run(run_own, "cli.main"),
    }
    for key in (
        "config.build_protocol",
        "pqcm.construct_machine",
        "pqcm.max_uniform_gamma",
        "signalling.stats_from_tally",
        "signalling.analytic_no_signal_certificate",
    ):
        metrics[f"{key}.s"] = per_run(run_total, key)
    for key in ("signalling.run_protocol", "signalling.run_channel"):
        metrics[f"{key}.self_s"] = per_run(run_own, key)
    for key in (
        "entangle.alice_measure",
        "qcore.SeededRng",
        "pqcm.apply_machine",
        "pqcm.illegal_clone",
    ):
        metrics[f"{key}.calls"] = per_run(run_calls, key)
        metrics[f"{key}.us_p50"] = us(key, 50)
    for key in ("entangle.alice_measure", "pqcm.apply_machine"):
        metrics[f"{key}.us_p99"] = us(key, 99)
    metrics["qcore.measure_subsystem.us_p50"] = us("qcore.measure_subsystem", 50)
    for kind in ("copies", "joint", "junk"):
        metrics[f"{VERIFY}.calls.{kind}"] = per_run(run_calls, f"{VERIFY}.{kind}")
    for kind in ("copies", "joint"):
        metrics[f"{VERIFY}.us_p50.{kind}"] = us(f"{VERIFY}.{kind}", 50)
        metrics[f"{VERIFY}.us_p99.{kind}"] = us(f"{VERIFY}.{kind}", 99)
    return {name: metrics[name] for name in PER_LAYER}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return f"unknown ({ref})"


def machine_facts(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((root / "src" / "pqclone").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "pqcm_threads": os.environ.get("PQCM_THREADS", "unset"),
        "pqclone_commit": git_commit(root),
        "pqclone_source_sha256": source.hexdigest(),
    }


def _single_thread() -> None:
    """One process, one thread: BLAS pools off, the trial pool at its default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PQCM_THREADS", None)


def measure(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up once, then invoke until ``seconds`` pass; return the metrics.

    Invocation k of the run uses ``--seed seed * SEED_STRIDE + k``.
    """
    seeds = itertools.count(seed * SEED_STRIDE)
    bench.untraced(next(seeds))  # warm-up: checked, not timed
    samples, traced_runs = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        invocation_seed = next(seeds)
        sample = bench.untraced(invocation_seed)
        if sample is not None:
            samples.append(sample)
        if trace:
            traced = bench.traced(invocation_seed)
            if traced is not None:
                traced_runs.append(traced)
    print(f"timed untraced invocations: {len(samples)}")
    if not samples:
        return dict.fromkeys(PER_LAYER if trace else END_TO_END, 0.0)
    timed = {key: [s[key] for s in samples] for key in samples[0]}
    for key, values in timed.items():
        print(
            f"  {key}: median {_median(values)!r} {END_TO_END.get(key, 's')} "
            f"(min {min(values)!r}, max {max(values)!r}, n={len(values)})"
        )
    if trace:
        print(f"timed traced invocations: {len(traced_runs)}")
        traced_s = min((run_s for run_s, _ in traced_runs), default=0.0)
        return layer_metrics(traced_runs, traced_s / min(timed["run_s"]))
    metrics = {key: best(timed[key]) for key, best in BEST.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "pqclone" / "cli.py").is_file():
        print(f"error: no pqclone sources under {src}", file=sys.stderr)
        return 2
    failures = run_selftests()
    if failures:
        print("error: the benchmark's own checks fail their self-tests:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1

    _single_thread()
    pq = Pqclone(src)
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        bench = Bench(pq, WORKLOADS[args.workload], out_dir)
        metrics = measure(bench, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{bench.attempted} invocations, {bench.failed} failed"
    )
    print(f"failed_ratio: {bench.failed / bench.attempted!r} ratio")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print("machine: " + json.dumps(machine_facts(ROOT), sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
