"""Decode benchmark for rmsyndrome.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from the
checkout's ``src/``, so nothing needs installing.  Inputs come from
``--seed`` (instance i draws from ``cli.substream_rng(seed, i)``), the
decoders see only the syndrome or the received word, and every decode is
checked against the planted error set.  The load is a closed loop with one
caller in one process: the next decode starts when the previous returns.

``--trace 0`` times the public decode call for S seconds and reports the
end-to-end metrics: latency median and tail and decodes per second, each
in refs (the decode's wall time divided by that of a fixed reference
loop timed next to it, see ReferenceLoop) and, ungated, in milliseconds
as measured; success rate; set-up time in fresh processes, gated in refs
scaled to seconds and reported as measured; peak resident memory.
``--trace 1`` reports per-layer metrics: self time per decode of each
traced public function from a run that alternates traced and untraced
decodes for S seconds, call counts from a separate count-only pass, cold
costs from a fresh process, and the wall time of one ``rmsyndrome decode``
process.

The last line of standard output is the result as one JSON object; the
line before it is the full report, which is also written, with the spans
of a traced run, under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".perfbench"

WORKLOAD_NAMES = ("f2-det-m20", "f2-jennrich-m12", "f3-word-m7", "f2-isolation-m12")

# Distinct instances generated per run, about what the timed loop decodes
# in 25 s, so that most decodes see a new input; a faster decoder cycles
# through them again.
POOL_SIZE = {"f2-det-m20": 160, "f2-jennrich-m12": 80, "f3-word-m7": 120,
             "f2-isolation-m12": 128}
# The warm-up instance, decoded before timing and cold in every set-up
# process, is instance -1 of seed 0 in every run: outside every pool, and
# the same for all seeds, so that set-up time does not vary with the
# randomized decoder's iteration count on a seed's own instance.
WARMUP_SEED, WARMUP_INDEX = 0, -1
SETUP_PROCESSES = 5
COLD_TRACE_PROCESSES = 3
CLI_PROCESSES = 3
COUNT_INSTANCES = 8
TAIL_BEYOND = 10

# Names whose cost is paid once per process; their per-layer figure is
# the cold cost in a fresh process, not a per-decode self time.
COLD_NAMES = ("fields.extension_field", "fields.find_primitive_element",
              "polynomials.monomial_index")
MS_NAMES = (
    "fields.berlekamp_roots", "linalg.rref", "linalg.nullspace_basis",
    "linalg.char_poly", "linalg.eigen_decompose", "linalg.full_rank_submatrix",
    "linalg.inverse", "linalg.solve",
    "polynomials.PolySpace.restrict_last_const",
    "polynomials.PolySpace.restrict_last_zero",
    "polynomials.PolySpace.affine_image", "polynomials.substitution_matrix",
    "code.syndrome_of_word", "code.solve_error_magnitudes",
    "code.syndrome_from_errors", "jennrich.tensor_from_syndrome",
    "jennrich.decompose", "polyspace.space_roots", "polyspace.det_find_roots",
    "polyspace.find_roots", "polyspace.locate_and_correct",
)
CALLS_NAMES = (
    "fields.ExtField.mul", "fields.ExtField.inv", "linalg.rref",
    "linalg.nullspace_basis", "linalg.inverse", "linalg.rank",
    "polynomials.PolySpace.restrict_last_const",
    "polynomials.PolySpace.restrict_last_zero", "polyspace.vv_sample",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("RMS_THREADS", None)
    return env


def percentile_beyond(values, beyond: int):
    """(q, value, samples above it) for the highest whole percentile q
    (nearest rank) with at least ``beyond`` samples above it; the median
    when no percentile has that many."""
    vals = sorted(values)
    n = len(vals)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)
        if n - rank >= beyond:
            return q, vals[rank - 1], n - rank
    return 50, statistics.median(vals), n // 2


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _ref_call(seq, i):
    return seq[i % 7] * 3 % 5


class ReferenceLoop:
    """Two fixed loops, timed together: one of small function calls with
    tuple and dict lookups, and one of big-int shifts and xors over 2000
    stored 4000-bit words (about 1 MB).  Their time is one ``ref``, the
    unit of the decode times that the benchmark gates.

    On a shared 2-vCPU x86-64 virtual machine with CPython 3.11 the wall
    time of identical decodes drifted by up to 1.7x over minutes, and these
    loops slowed in step with the decoders.  Over ten 25 s runs per
    workload, the spread (interquartile range over median) of the decode
    time median was 0.19-0.30 in milliseconds and 0.02-0.07 in refs.
    Either loop alone tracked one of the workloads worse than the pair.
    """

    CALLS, WORDS, BITS = 3000, 2000, 4000
    # Seconds per ref used to report set-up time in seconds: about the
    # loop's time on that machine when unloaded.  setup_s is the set-up
    # time in refs times this constant, so that host drift between two sets
    # of runs (it moved a raw set-up median by 37%) does not show as a
    # regression, while work moved into set-up still does.
    NOMINAL_S = 0.002

    def __init__(self):
        rng = random.Random(0)
        self.words = [rng.getrandbits(self.BITS) for _ in range(self.WORDS)]
        self.seq = tuple(range(7))
        self.table = {i: i * 3 for i in range(512)}

    def seconds(self) -> float:
        seq, table, words, n = self.seq, self.table, self.words, self.WORDS
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.CALLS):
            acc += _ref_call(seq, i) + table[i & 511]
        acc = 0
        for i in range(n):
            acc ^= words[i * 769 % n] >> (i & 31)
        return time.perf_counter() - t0


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


class Bench:
    def __init__(self, args):
        # the library is importable only once src/ is on the path
        import workloads
        from rmsyndrome.code import DecodingFailure
        from rmsyndrome.polyspace import IsolationBoundWarning
        import tracer

        warnings.simplefilter("ignore", IsolationBoundWarning)
        self.args = args
        self.wl = workloads
        self.tracer_mod = tracer
        self.failure = DecodingFailure
        self.w = workloads.WORKLOADS[args.workload]
        self.pool = [workloads.make_instance(self.w, args.seed, i)
                     for i in range(POOL_SIZE[self.w.name])]
        self.warmup = workloads.make_instance(self.w, WARMUP_SEED, WARMUP_INDEX)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    # -- one decode ---------------------------------------------------------

    def warm_up(self) -> None:
        """Fill the library's caches with an instance outside the timed set."""
        try:
            self.wl.decode(self.w, self.warmup, self.warmup.decoder_rng())
        except self.failure:
            pass

    def decode_once(self, inst, runner=None) -> float:
        """Decode one instance, check it, and return its wall seconds.
        ``runner`` (a tracer's ``root``) wraps the call in a root span."""
        rng = inst.decoder_rng() if self.w.mode == "rand" else None
        call = self.wl.decode
        t0 = time.perf_counter()
        try:
            if runner is None:
                located, _residual = call(self.w, inst, rng)
            else:
                located, _residual = runner(call, self.w, inst, rng)
        except self.failure:
            located = None
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if located is None:
            self.failed += 1
        elif located.points != inst.planted:
            self.failed += 1
            self.wrong += 1
        return elapsed

    # -- fresh processes ----------------------------------------------------

    def cold_process(self, trace: bool) -> dict:
        job = {"workload": self.w.name, "trace": trace,
               "instance": self.wl.instance_to_json(self.warmup)}
        proc = subprocess.run([sys.executable, str(HERE / "cold.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=child_env(), cwd=CHECKOUT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold decode process failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.splitlines()[-1])
        if Path(out["module"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"cold process imported {out['module']}, not this checkout")
        self.attempted += 1
        if out["outcome"] != "ok":
            self.failed += 1
            self.wrong += out["outcome"] == "wrong"
            self.notes.append(f"cold decode outcome: {out['outcome']}")
        return out

    def cli_process(self, workdir: Path) -> float:
        """Wall seconds of one ``rmsyndrome decode`` process on the first
        instance's syndrome file, through the console-script entry point
        ``rmsyndrome.cli:main`` declared in pyproject.toml."""
        inst = self.pool[0]
        syndrome = inst.syndrome
        if syndrome is None:
            from rmsyndrome.code import syndrome_of_word
            syndrome = syndrome_of_word(inst.word)
        synd_path = workdir / "syndrome.json"
        out_path = workdir / "located.json"
        synd_path.write_text(json.dumps(syndrome.to_json_dict()))
        out_path.unlink(missing_ok=True)
        argv = [sys.executable, "-c",
                "import sys; from rmsyndrome.cli import main; sys.exit(main())",
                "decode", "--syndrome", str(synd_path), "--algo", self.w.algorithm,
                "--mode", self.w.mode, "--seed", str(self.args.seed),
                "--out", str(out_path)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), cwd=CHECKOUT, timeout=120)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.notes.append(f"rmsyndrome decode exited {proc.returncode}: "
                              f"{proc.stderr.strip()}")
            return elapsed
        located = tuple(tuple(e) for e in json.loads(out_path.read_text()))
        if located != inst.planted:
            self.failed += 1
            self.wrong += 1
        return elapsed

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        ref = ReferenceLoop()
        setups, setup_refs = [], []
        for _ in range(SETUP_PROCESSES):
            ref_before = ref.seconds()
            setups.append(self.cold_process(trace=False)["setup_s"])
            setup_refs.append(setups[-1] / ((ref_before + ref.seconds()) / 2))
        self.warm_up()
        gc.collect()
        failed_before = self.failed
        times, refs = [], []
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while True:
            ref_before = ref.seconds()
            times.append(self.decode_once(self.pool[i % len(self.pool)]))
            refs.append((ref_before + ref.seconds()) / 2)
            i += 1
            if time.perf_counter() >= deadline:
                break
        timed = len(times)
        loop_failed = self.failed - failed_before
        ratios = [t / r for t, r in zip(times, refs)]
        q, tail_ref, beyond = percentile_beyond(ratios, TAIL_BEYOND)
        tail_ms = percentile_beyond(times, TAIL_BEYOND)[1] * 1e3
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "decode_ref_p50": (statistics.median(ratios), "ref"),
            "decode_ref_tail": (tail_ref, "ref"),
            "decodes_per_kref": (1000.0 * timed / sum(ratios), "1/kref"),
            "success_rate": ((timed - loop_failed) / timed, "ratio"),
            "setup_s": (statistics.median(setup_refs) * ReferenceLoop.NOMINAL_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        as_measured = {
            "decode_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "decode_ms_tail": (tail_ms, "ms"),
            "decodes_per_s": (timed / sum(times), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "wrong_sets": (self.wrong, "count"),
        }
        self.notes.append(
            "decode_ms_p50, decode_ms_tail, decodes_per_s and the set-up time in "
            "seconds are reported under as_measured and gated in refs "
            "(decode_ref_p50, decode_ref_tail, decodes_per_kref, and setup_s as "
            "refs times ReferenceLoop.NOMINAL_S), because host drift spreads "
            "wall times wider between runs than any bound the benchmark may "
            "set; wrong_sets is never a gated metric because it reads 0 on "
            "every correct run, and any nonzero value sets correct to false")
        detail = {"timed_decodes": timed,
                  "distinct_instances": min(timed, len(self.pool)),
                  "tail_percentile": q, "tail_samples_beyond": beyond,
                  "failed_decodes": loop_failed, "setup_s_samples": setups,
                  "ref_ms_p50": statistics.median(refs) * 1e3,
                  "as_measured": {k: {"value": v, "unit": u}
                                  for k, (v, u) in as_measured.items()}}
        return metrics, detail

    def count_calls(self, n: int):
        """Decode the first n pool instances with every traced name (and
        ExtField.mul/inv) wrapped to count calls only; return the tracer.
        Run after warm_up, so the counts are those of a warm process."""
        counter = self.tracer_mod.Tracer(timed=False)
        counter.install(self.tracer_mod.TRACED + self.tracer_mod.COUNT_ONLY)
        try:
            for inst in self.pool[:n]:
                self.decode_once(inst)
        finally:
            counter.uninstall()
        return counter

    def per_layer(self) -> tuple[dict, dict, object]:
        T = self.tracer_mod
        cold = [self.cold_process(trace=True)["self_s"]
                for _ in range(COLD_TRACE_PROCESSES)]
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        try:
            cli_s = [self.cli_process(workdir) for _ in range(CLI_PROCESSES)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        self.warm_up()
        counter = self.count_calls(COUNT_INSTANCES)

        spans = T.Tracer(timed=True)
        untraced: list[float] = []
        gc.collect()
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while time.perf_counter() < deadline:
            inst = self.pool[i % len(self.pool)]
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    spans.install()
                    try:
                        self.decode_once(inst, spans.root)
                    finally:
                        spans.uninstall()
                else:
                    untraced.append(self.decode_once(inst))
            i += 1
        traced_s = spans.root_durations()
        n = len(traced_s)
        self_s = spans.self_times()

        metrics = {}
        for name in MS_NAMES:
            metrics[f"{name}.ms"] = (self_s.get(name, 0.0) / n * 1e3, "ms")
        for name in COLD_NAMES:
            metrics[f"{name}.ms"] = (statistics.median(c.get(name, 0.0) for c in cold) * 1e3, "ms")
        for name in CALLS_NAMES:
            metrics[f"{name}.calls"] = (counter.counts[name] / COUNT_INSTANCES, "count")
        samples = counter.counts["polyspace.vv_sample"]
        metrics["polyspace.isolation_hit_ratio"] = (
            counter.located / samples if samples else 0.0, "ratio")
        unused = [k for k, (v, _unit) in metrics.items() if v == 0]
        if unused:
            self.notes.append("read 0 because this workload does not reach "
                              "them: " + ", ".join(unused))
        metrics["cli.decode_process_s"] = (statistics.median(cli_s), "s")
        overhead = statistics.median(traced_s) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        detail = {"traced_decodes": n, "untraced_decodes": len(untraced),
                  "count_pass_decodes": COUNT_INSTANCES,
                  "traced_decode_ms_p50": statistics.median(traced_s) * 1e3,
                  "untraced_decode_ms_p50": statistics.median(untraced) * 1e3,
                  "cli_decode_process_s_samples": cli_s,
                  "cold_self_ms": {k: [c.get(k, 0.0) * 1e3 for c in cold] for k in COLD_NAMES},
                  "warm_self_ms_per_decode": {k: self_s.get(k, 0.0) / n * 1e3 for k in COLD_NAMES},
                  "wrong_sets": self.wrong}
        return metrics, detail, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmsyndrome" / "__init__.py").is_file():
        print(f"perfbench: no rmsyndrome sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.pop("RMS_THREADS", None)
    OUT_DIR.mkdir(exist_ok=True)

    bench = Bench(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = None
    if args.trace:
        metrics, detail, spans = bench.per_layer()
    else:
        metrics, detail = bench.end_to_end()
    correct = bench.wrong == 0
    report = {
        "workload": args.workload, "why": bench.w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "params": {"m": bench.w.m, "r": bench.w.r, "p": bench.w.p, "t": bench.w.t,
                   "algorithm": bench.w.algorithm, "mode": bench.w.mode,
                   "input": "word" if bench.w.from_word else "syndrome"},
        "host": host_info(), "src_lines": src_line_count(),
        "workloads": {n: bench.wl.WORKLOADS[n].why for n in WORKLOAD_NAMES},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail, "notes": bench.notes,
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans is not None:
        spans.write(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
