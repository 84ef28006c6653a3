"""End-to-end and per-layer benchmark of the knotquiver CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-full --seed 1 --seconds 40 --trace 0

It imports ``knotquiver`` from ``src/`` and drives ``knotquiver.cli.main``
in-process, one command at a time (closed loop, one thread).  Workloads:

* ``corpus-full``    ``verify`` on the bundled corpus with the CLI defaults;
* ``twobridge-fast`` ``verify <generated corpus> --fast`` on a fixed ladder
  of 2-bridge knots and links of 13 to 15 crossings, in seeded order;
* ``fpoly-cache``    ``fpoly <pd> --all --format json --cache-dir <fresh dir>``
  over the corpus, two 2-bridge diagrams and seeded crossing-change
  variants, once cold and once warm from the cache the cold pass wrote.

A round is one pass (verify workloads) or a cold and a warm pass
(``fpoly-cache``), preceded by a few timed set-ups (import, corpus load,
generating and parsing the diagrams, writing the generated corpus).  Rounds
repeat while the next one is expected to end within ``--seconds``, at least
twice.  Every operation is timed on its own, and a pass time is the sum
over operations of each one's median across rounds: ``wall_s`` for the
first pass of a round, ``warm_s`` for the warm pass or, on the verify
workloads, which use no cache, for the rounds after the first.
``setup_s`` is the median set-up.  Spreading the set-ups and rounds over
the whole run, and taking medians, keeps the figures steady when the
machine's speed drifts within a run.  Scaling each round's times to a
reference speed, from the samples ``speed.py`` takes during the round,
keeps them steady when it drifts between runs.  With ``--trace 1`` every second round runs with the
library's public functions wrapped (see ``spans.py``), no speed samples
are taken, and the per-layer metrics are printed instead, unscaled.

Every operation (one diagram's command) is checked: exit code 0, PASS, the
expected Alexander polynomial, stdout identical across passes, cold and
warm, and to earlier runs of the same seed and code; work counts identical
across traced rounds and runs.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS_PER_ROUND = 3
MIN_ROUNDS = 2
LADDER_SEED = 0
WORKLOADS = ("corpus-full", "twobridge-fast", "fpoly-cache")

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402


def import_knotquiver():
    """A fresh import of knotquiver from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "knotquiver" or k.startswith("knotquiver.")]:
        del sys.modules[key]
    kq = importlib.import_module("knotquiver")
    importlib.import_module("knotquiver.cli")
    if not Path(kq.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"knotquiver imported from {kq.__file__}, not from {SRC}")
    return kq


def draw(workload: str, seed: int) -> list[list[int]]:
    """The workload's continued fractions, in an order the seed shuffles.

    The fractions themselves come from the fixed LADDER_SEED: their costs
    differ by about 20% from one diagram to the next, and a per-seed draw
    added that to the spread between seeds.  Not timed.
    """
    spec = {"twobridge-fast": wl.TWOBRIDGE, "fpoly-cache": wl.FPOLY_TWOBRIDGE}.get(workload)
    cfs = wl.draw_cfs(random.Random(LADDER_SEED), spec) if spec else []
    random.Random(seed).shuffle(cfs)
    return cfs


def knotquiver_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "knotquiver" or k.startswith("knotquiver.")}


def setup(workload: str, seed: int, cfs: list[list[int]], run_dir: Path):
    """Import, load the corpus, build, parse and validate the diagrams."""
    kq = import_knotquiver()
    corpus_path = None
    if workload == "corpus-full":
        ops = wl.corpus_ops(kq)
    elif workload == "twobridge-fast":
        ops = wl.two_bridge_ops(kq, cfs, "2b")
        corpus_path = run_dir / "twobridge.jsonl"
        wl.write_corpus(corpus_path, ops)
    else:
        corpus = wl.corpus_ops(kq)
        rng = random.Random(f"crossing-change:{seed}")
        ops = corpus + wl.two_bridge_ops(kq, cfs, "2b") + wl.variant_ops(kq, rng, corpus)
    return kq, ops, corpus_path


def call(kq, argv: list[str], probe: speed.SpeedProbe) -> tuple[int, str, float]:
    """Exit code, stdout and seconds of one in-process CLI command."""
    out = io.StringIO()
    start, sampled = perf_counter(), probe.total
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = kq.cli.main(argv)
    except Exception as exc:  # an escaped exception fails the operation
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = -1
    return rc, out.getvalue(), perf_counter() - start - (probe.total - sampled)


class Pass(NamedTuple):
    times: dict  # seconds per command
    outputs: dict  # stdout digest per op, None where the op's check failed
    tracer: spans.Tracer | None


def median_total(passes: list[Pass]) -> float:
    """Sum over a pass's commands of each one's median time across ``passes``."""
    return sum(statistics.median(p.times[k] for p in passes) for k in passes[0].times)


class Bench:
    def __init__(self, workload: str, kq, ops: list, corpus_path, run_dir: Path, probe):
        self.workload = workload
        self.probe = probe
        self.kq = kq
        self.ops = ops
        self.corpus_path = corpus_path
        self.run_dir = run_dir
        self.bytes_written = 0

    def verify_pass(self) -> tuple[dict, dict]:
        argv = ["verify"] if self.corpus_path is None else ["verify", str(self.corpus_path), "--fast"]
        rc, out, seconds = call(self.kq, argv, self.probe)
        lines = wl.verify_lines(self.ops, rc, out)
        return {"verify": seconds}, {name: digest(line) for name, line in lines.items()}

    def fpoly_pass(self, cache_dir: Path) -> tuple[dict, dict]:
        times = {}
        outputs = {}
        for op in self.ops:
            argv = ["fpoly", op.pd, "--all", "--format", "json", "--cache-dir", str(cache_dir)]
            rc, out, times[op.name] = call(self.kq, argv, self.probe)
            outputs[op.name] = digest(out) if wl.fpoly_ok(op, rc, out) else None
        return times, outputs

    def run_pass(self, traced: bool, cache_dir: Path | None = None) -> Pass:
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            if cache_dir is None:
                return Pass(*self.verify_pass(), tracer)
            return Pass(*self.fpoly_pass(cache_dir), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def round(self, index: int, traced: bool) -> list[Pass]:
        if self.workload != "fpoly-cache":
            return [self.run_pass(traced)]
        cache_dir = self.run_dir / f"cache-{index}"
        try:
            passes = [self.run_pass(traced, cache_dir) for _ in ("cold", "warm")]
            self.bytes_written = sum(p.stat().st_size for p in cache_dir.iterdir())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return passes


def digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def fingerprint(ops) -> str:
    """Identifies the code under test and the inputs, for cross-run checks."""
    h = hashlib.sha256()
    for path in sorted((SRC / "knotquiver").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    for op in ops:
        h.update(f"{op.name}\0{op.pd}\0".encode())
    return h.hexdigest()


def check_against_earlier_runs(path: Path, record: dict) -> set[str]:
    """Keys of ``record`` that differ from what an earlier run stored."""
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = {k for k, v in record.items() if k in earlier and earlier[k] != v}
    merged = {**record, **earlier}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True))
    tmp.replace(path)
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knotquiver" / "__init__.py").is_file():
        print(f"error: no knotquiver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the user's environment must neither enable nor pre-warm a cache
    os.environ.pop("KNOTQUIVER_CACHE_DIR", None)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, run_dir)
    except spans.MissingName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    probe = speed.SpeedProbe()
    if args.trace == 1:
        return measure_with(args, run_dir, probe)
    with probe:
        return measure_with(args, run_dir, probe)


def measure_with(args, run_dir: Path, probe: speed.SpeedProbe) -> int:
    cfs = draw(args.workload, args.seed)
    setup_times = []
    pending = []  # set-up seconds of the coming round, not yet scaled
    mark = len(probe.samples)  # the first speed sample of the coming round

    def timed_setup():
        start, sampled = perf_counter(), probe.total
        result = setup(args.workload, args.seed, cfs, run_dir)
        pending.append(perf_counter() - start - (probe.total - sampled))
        return result

    kq, ops, corpus_path = timed_setup()
    modules = knotquiver_modules()
    # reference values from the region-matrix oracle, outside any timing
    for op in ops:
        if op.alexander is None and op.det is None:
            det = kq.oracle.alexander_det(kq.diagram.parse_pd(op.pd))
            op.alexander = wl.unit_key(det.terms)
    bench = Bench(args.workload, kq, ops, corpus_path, run_dir, probe)
    rounds = []
    scales = []
    lengths = []  # seconds of each round with its set-ups
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start + statistics.median(lengths) <= args.seconds:
        begin = perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            timed_setup()
            # the rounds keep running (and the tracer keeps wrapping) the first import
            for key in knotquiver_modules():
                del sys.modules[key]
            sys.modules.update(modules)
        traced = args.trace == 1 and len(rounds) % 2 == 1
        passes = bench.round(len(rounds), traced)
        # to seconds at the reference speed, as sampled during the round and its set-ups
        scales.append(probe.scale(mark) if args.trace == 0 else 1.0)
        mark = len(probe.samples)
        setup_times += [t * scales[-1] for t in pending]
        pending.clear()
        rounds.append([p._replace(times={k: t * scales[-1] for k, t in p.times.items()}) for p in passes])
        lengths.append(perf_counter() - begin)
        if len(rounds) == 1:
            # what one command of each op needs; later rounds only add the benchmark's own
            # garbage (discarded imports), as many times as the machine's speed allows rounds
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness: every op of every pass against the first pass ----------------
    attempted = failed = 0
    reference = rounds[0][0].outputs
    signatures = []
    for passes in rounds:
        sig = [p.tracer.work_signature() for p in passes if p.tracer is not None]
        if sig:
            signatures.append(hashlib.sha256("".join(sig).encode()).hexdigest())
        round_ok = not sig or signatures[-1] == signatures[0]
        for p in passes:
            for op in ops:
                attempted += 1
                d = p.outputs.get(op.name)
                if d is None or d != reference[op.name] or not round_ok:
                    failed += 1
    record = {f"stdout:{name}": d for name, d in reference.items()}
    if signatures:
        record["work"] = signatures[0]
    digests = WORK / "digests"
    digests.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}-{args.seed}-{fingerprint(ops)[:16]}.json"
    for mismatch in check_against_earlier_runs(digests / key, record):
        print(f"differs from an earlier run of this seed: {mismatch}", file=sys.stderr)
        failed += len(ops) if mismatch == "work" else 1

    if args.trace == 0:
        first = [r[0] for r in rounds]
        warm = [r[1] for r in rounds] if args.workload == "fpoly-cache" else first[1:]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (median_total(first), "s"),
            "warm_s": (median_total(warm), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = layer_report(rounds, bench, failed / attempted)
        write_spans(args, rounds)
    seconds = [[sum(p.times.values()) for p in r] for r in rounds]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                      "scales": scales, "setup_seconds": setup_times,
                      "fingerprint": key, "record": record}), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def layer_report(rounds, bench: Bench, fail_ratio: float) -> dict:
    """Per-layer metrics: medians over traced rounds of the round totals."""
    per_round = []
    for passes in rounds:
        if passes[0].tracer is None:
            continue
        layers = [spans.layer_metrics(p.tracer) for p in passes]
        totals = {name: sum(m[name] for m in layers) for name in layers[0]}
        last = layers[-1]  # the warm pass of fpoly-cache
        lookups = last["cache.hits"] + last["cache.misses"]
        totals["cache.hit_ratio"] = last["cache.hits"] / lookups if lookups else 0.0
        per_round.append(totals)
    metrics = {
        name: (statistics.median(r[name] for r in per_round), "s" if name.endswith("_s") else "count")
        for name in per_round[0]
    }
    traced_wall = median_total([r[0] for r in rounds if r[0].tracer is not None])
    untraced_wall = median_total([r[0] for r in rounds if r[0].tracer is None])
    metrics["cache.hit_ratio"] = (metrics["cache.hit_ratio"][0], "ratio")
    metrics["cache.bytes_written"] = (bench.bytes_written, "B")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["fail_ratio"] = (fail_ratio, "ratio")
    return metrics


def write_spans(args, rounds) -> None:
    out = []
    for r, passes in enumerate(rounds):
        for k, p in enumerate(passes):
            if p.tracer is not None:
                out.append({"round": r, "pass": k, "spans": p.tracer.spans})
    path = WORK / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
