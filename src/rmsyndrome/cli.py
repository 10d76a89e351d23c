"""Command-line front end: encode words, compute syndromes (batch or
streaming), decode error locations, and run seeded experiment sweeps.

Exit codes: 0 success, 2 decode failure, 3 invalid input, 4 parameter
bounds violated.

Reproducibility: every trial draws from its own substream generator
seeded by scheme "rms-sha256-v1": the first 8 bytes of
sha256("rmsyndrome-v1:<seed>:<index>") seed a Mersenne Twister.  The
RMS_THREADS environment variable caps experiment worker processes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from .code import (CodeParams, DecodingFailure, LengthMismatchError,
                   MalformedInputError, SamplingError, read_syndrome_file,
                   read_word_file, sample_error_set, syndrome_from_errors,
                   syndrome_of_word, syndrome_streaming, encode as encode_word,
                   write_syndrome_file, write_word_file)
from .polynomials import monomial_index, poly_from_obj, space_to_obj
from .polyspace import (DECODER_MODES, IsolationBoundWarning,
                        PartialRecoveryWarning, locate_and_correct,
                        resolve_mode, run_decoder, space_roots)

EXIT_OK = 0
EXIT_DECODE_FAILURE = 2
EXIT_INVALID_INPUT = 3
EXIT_PARAM_BOUNDS = 4

ALGORITHMS = sorted(DECODER_MODES)
MODES = sorted({mode for modes in DECODER_MODES.values() for mode in modes})

CSV_COLUMNS = ["record", "trial", "m", "r", "p", "t", "algo", "mode", "seed",
               "status", "success", "mismatches", "ur_resamples",
               "sample_ms", "syndrome_ms", "decode_ms",
               "success_rate", "decode_ms_p50", "decode_ms_p90", "decode_ms_max"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def substream_seed(master: int, index: int) -> int:
    """Derived per-trial seed (scheme rms-sha256-v1)."""
    digest = hashlib.sha256(f"rmsyndrome-v1:{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def substream_rng(master: int, index: int) -> random.Random:
    return random.Random(substream_seed(master, index))


def _t_range(text: str) -> tuple[int, int]:
    """The bounds of --t-range LO:HI; an empty range is a bounds error later."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI with integer bounds, "
                                         f"got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="rmsyndrome",
                     description="syndrome decoding of high-rate Reed-Muller "
                                 "codes from random errors")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="evaluate a polynomial into a word file")
    enc.add_argument("--m", type=int, required=True)
    enc.add_argument("--r", type=int, required=True)
    enc.add_argument("--p", type=int, default=2)
    enc.add_argument("--poly", required=True,
                     help="JSON list of [exponent-vector, coefficient] pairs")
    enc.add_argument("--out", required=True, help="word file (sidecar .json added)")

    syn = sub.add_parser("syndrome", help="compute the syndrome of a word file")
    syn.add_argument("--word", required=True)
    syn.add_argument("--stream", action="store_true",
                     help="one-pass accumulation over the file")
    syn.add_argument("--out", required=True)

    dec = sub.add_parser("decode", help="recover error locations from a syndrome")
    dec.add_argument("--syndrome", required=True)
    dec.add_argument("--algo", choices=ALGORITHMS, default="jennrich")
    dec.add_argument("--mode", choices=MODES, default=None,
                     help="default: the algorithm's deterministic mode "
                          "(jennrich axis, polyspace det)")
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--ext-degree", type=int, default=None,
                     help="extension degree for the tensor decoder (default 10m)")
    dec.add_argument("--dump-space", default=None,
                     help="also write the recovered vanishing space as JSON")
    dec.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="seeded multi-trial sweep to CSV")
    exp.add_argument("--m", type=int, required=True)
    exp.add_argument("--r", type=int, required=True)
    exp.add_argument("--p", type=int, default=2)
    exp.add_argument("--t", type=int, default=None)
    exp.add_argument("--t-range", type=_t_range, default=None, metavar="LO:HI",
                     help="inclusive range of error counts to sweep")
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--algo", choices=ALGORITHMS, default="jennrich")
    exp.add_argument("--mode", choices=MODES, default=None,
                     help="default: the algorithm's deterministic mode")
    exp.add_argument("--ext-degree", type=int, default=None)
    exp.add_argument("--omit-timing", action="store_true",
                     help="zero the duration columns for byte-identical reruns")
    exp.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"rmsyndrome: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        if args.command == "encode":
            return _cmd_encode(args)
        if args.command == "syndrome":
            return _cmd_syndrome(args)
        if args.command == "decode":
            return _cmd_decode(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise AssertionError(args.command)
    except DecodingFailure as exc:
        print(f"rmsyndrome: decode failure: {exc}", file=sys.stderr)
        return EXIT_DECODE_FAILURE
    # before ValueError: JSONDecodeError and MalformedInputError subclass it
    except (OSError, json.JSONDecodeError, KeyError, MalformedInputError) as exc:
        print(f"rmsyndrome: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ValueError, SamplingError) as exc:
        print(f"rmsyndrome: parameter bounds: {exc}", file=sys.stderr)
        return EXIT_PARAM_BOUNDS


def _cmd_encode(args) -> int:
    params = CodeParams(args.m, args.r, args.p)
    obj = json.loads(Path(args.poly).read_text())
    index = monomial_index(params.m, params.code_degree, params.p)
    poly = poly_from_obj(obj, index)
    word = encode_word(poly, params)
    write_word_file(word, args.out)
    return EXIT_OK


def _cmd_syndrome(args) -> int:
    if args.stream:
        sidecar = Path(args.word + ".json")
        params = CodeParams.from_json_dict(json.loads(sidecar.read_text()))
        syndrome = syndrome_streaming(params, _stream_values(args.word, params))
    else:
        word = read_word_file(args.word)
        syndrome = syndrome_of_word(word)
    write_syndrome_file(syndrome, args.out)
    return EXIT_OK


def _stream_values(path, params: CodeParams):
    """Yield the p^m coordinates of a word file in enumeration order,
    reading the file in fixed-size chunks."""
    n, p = params.n, params.p
    if os.path.getsize(path) != ((n + 7) // 8 if p == 2 else n):
        raise LengthMismatchError("word file length mismatch")
    emitted = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(4096):
            for byte in chunk:
                if p == 2:
                    if byte >> min(8, n - emitted):
                        raise MalformedInputError(
                            "padding bits of the last byte must be zero")
                    for bit in range(min(8, n - emitted)):
                        yield byte >> bit & 1
                    emitted += 8
                elif byte >= p:
                    raise MalformedInputError(f"word symbols must lie in [0, {p})")
                else:
                    yield byte


def _cmd_decode(args) -> int:
    syndrome = read_syndrome_file(args.syndrome)
    rng = substream_rng(args.seed, 0)
    if args.dump_space is not None:
        Path(args.dump_space).write_text(json.dumps(space_to_obj(space_roots(syndrome))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        errors, _residual = locate_and_correct(
            syndrome, algorithm=args.algo, mode=args.mode, rng=rng,
            ext_degree=args.ext_degree)
    Path(args.out).write_text(json.dumps([list(e) for e in errors.points]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments.


def _trial_worker(job) -> dict:
    (m, r, p, t, algo, mode, ext_degree, master_seed, index, omit_timing) = job
    params = CodeParams(m, r, p)
    rng = substream_rng(master_seed, index)
    row = {"record": "trial", "trial": index, "m": m, "r": r, "p": p, "t": t,
           "algo": algo, "mode": mode, "seed": substream_seed(master_seed, index),
           "status": "ok", "success": 0, "mismatches": "", "ur_resamples": "",
           "sample_ms": 0.0, "syndrome_ms": 0.0, "decode_ms": 0.0,
           "success_rate": "", "decode_ms_p50": "", "decode_ms_p90": "",
           "decode_ms_max": ""}
    t0 = time.perf_counter()
    try:
        planted = sample_error_set(params, t, rng)
    except (SamplingError, ValueError):
        # t beyond the independence bound, or no independent set found:
        # a sweep records the boundary instead of crashing
        row["status"] = "sampling_failed"
        row["sample_ms"] = _ms(t0, omit_timing)
        row["mismatches"] = t
        return row
    row["ur_resamples"] = planted.resamples
    row["sample_ms"] = _ms(t0, omit_timing)
    t0 = time.perf_counter()
    syndrome = syndrome_from_errors(planted)
    row["syndrome_ms"] = _ms(t0, omit_timing)
    t0 = time.perf_counter()
    recovered = ()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolationBoundWarning)
            warnings.simplefilter("ignore", PartialRecoveryWarning)
            result = run_decoder(syndrome, algorithm=algo, mode=mode, rng=rng,
                                 ext_degree=ext_degree)
            recovered = result.points
    except DecodingFailure:
        row["status"] = "decode_failed"
    row["decode_ms"] = _ms(t0, omit_timing)
    row["success"] = int(tuple(recovered) == planted.points)
    row["mismatches"] = len(set(recovered) ^ set(planted.points))
    return row


def _ms(t0: float, omit: bool) -> float:
    return 0.0 if omit else round((time.perf_counter() - t0) * 1000.0, 3)


def _percentile(values, q: float):
    if not values:
        return ""
    vals = sorted(values)
    pos = min(len(vals) - 1, max(0, round(q * (len(vals) - 1))))
    return vals[pos]


def _cmd_experiment(args) -> int:
    if (args.t is None) == (args.t_range is None):
        raise ValueError("pass exactly one of --t and --t-range")
    if args.t is not None:
        t_values = [args.t]
    else:
        lo, hi = args.t_range
        if hi < lo:
            raise ValueError("empty --t-range")
        t_values = list(range(lo, hi + 1))
    if args.trials < 1:
        raise ValueError("need trials >= 1")
    CodeParams(args.m, args.r, args.p)  # validate bounds before spawning work
    args.mode = resolve_mode(args.algo, args.mode)
    workers = max(1, int(os.environ.get("RMS_THREADS", "1")))
    jobs = []
    index = 0
    for t in t_values:
        for _ in range(args.trials):
            jobs.append((args.m, args.r, args.p, t, args.algo, args.mode,
                         args.ext_degree, args.seed, index, args.omit_timing))
            index += 1
    out = Path(args.out)
    rows_by_t: dict[int, list[dict]] = {t: [] for t in t_values}
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        try:
            # rows come back in job order, one process or a pool alike
            with (ProcessPoolExecutor(max_workers=workers) if workers > 1
                  else nullcontext()) as pool:
                for row in (map if pool is None else pool.map)(_trial_worker, jobs):
                    rows_by_t[row["t"]].append(row)
                    writer.writerow(row)
                    fh.flush()
        except KeyboardInterrupt:
            _write_summaries(writer, rows_by_t, args)
            fh.flush()
            print("rmsyndrome: interrupted, partial results flushed", file=sys.stderr)
            return 130
        _write_summaries(writer, rows_by_t, args)
    return EXIT_OK


def _write_summaries(writer, rows_by_t, args) -> None:
    for t, rows in rows_by_t.items():
        if not rows:
            continue
        times = [r["decode_ms"] for r in rows if r["status"] != "sampling_failed"]
        summary = {c: "" for c in CSV_COLUMNS}
        summary.update({
            "record": "summary", "m": args.m, "r": args.r, "p": args.p, "t": t,
            "algo": args.algo, "mode": args.mode,
            "success_rate": round(sum(r["success"] for r in rows) / len(rows), 6),
            "decode_ms_p50": _percentile(times, 0.5),
            "decode_ms_p90": _percentile(times, 0.9),
            "decode_ms_max": max(times) if times else "",
        })
        writer.writerow(summary)


if __name__ == "__main__":
    sys.exit(main())
