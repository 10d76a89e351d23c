"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with -s to see them live).  Randomness is seeded through the CLI's
substream scheme, so the whole suite is reproducible.
"""

import math
import statistics
import sys
import time
import tracemalloc
import warnings

from rmsyndrome.cli import _stream_values, substream_rng
from rmsyndrome.code import (CodeParams, SamplingError, corrupt,
                             encode, sample_error_set, syndrome_from_errors,
                             syndrome_of_word, syndrome_streaming,
                             tensor_power_matrix, vanishing_space,
                             write_word_file)
from rmsyndrome.fields import (UniPoly, berlekamp_roots, extension_field,
                               find_primitive_element)
from rmsyndrome.jennrich import decompose, derandomized_flattening_vectors
from rmsyndrome.linalg import rank
from rmsyndrome.polynomials import MultilinearPoly, monomial_index
from rmsyndrome.polyspace import (IsolationBoundWarning, det_find_roots,
                                  find_roots, space_roots, vv_sample)
from conftest import random_invertible
from helpers import check_ur_preserved

GRID = [(10, 1), (12, 1), (8, 2)]
T_PLANTED = 8
TRIALS = 100


def _report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_jennrich_round_trip():
    worst_time = 0.0
    details = []
    ok = True
    for m, r in GRID:
        params = CodeParams(m, r)
        D = 4 * m
        rand_hits = 0
        derand_hits = 0
        reproducible = True
        for trial in range(TRIALS):
            rng = substream_rng(101, 10_000 * m + trial)
            E = sample_error_set(params, T_PLANTED, rng)
            S = syndrome_from_errors(E)
            t0 = time.perf_counter()
            rec = decompose(S, "randomized", rng, ext_degree=D)
            worst_time = max(worst_time, time.perf_counter() - t0)
            rand_hits += rec.points == E.points
            t0 = time.perf_counter()
            d1 = decompose(S, "derandomized", ext_degree=D)
            worst_time = max(worst_time, time.perf_counter() - t0)
            d2 = decompose(S, "derandomized", ext_degree=D)
            derand_hits += d1.points == E.points
            reproducible &= d1.points == d2.points
        ok &= rand_hits >= 99 and derand_hits == TRIALS and reproducible
        details.append(f"(m={m},r={r}): rand {rand_hits}/100, "
                       f"derand {derand_hits}/100, repro={reproducible}")
    ok &= worst_time < 2.0
    _report(1, "tensor-decoder round trip",
            ok, "; ".join(details) + f"; worst decode {worst_time:.3f}s < 2s")


def test_criterion_02_polyspace_round_trip():
    details = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        for m, r in GRID:
            params = CodeParams(m, r)
            rand_hits = 0
            det_hits = 0
            for trial in range(TRIALS):
                rng = substream_rng(202, 10_000 * m + trial)
                E = sample_error_set(params, T_PLANTED, rng)
                V = space_roots(syndrome_from_errors(E))
                rand_hits += find_roots(V, rng).points == E.points
                det_hits += det_find_roots(V).points == E.points
            ok &= rand_hits >= 99 and det_hits == TRIALS
            details.append(f"(m={m},r={r}): rand {rand_hits}/100, det {det_hits}/100")
    _report(2, "polynomial-space round trip", ok, "; ".join(details))


def _oracle_instances():
    """200 random independent-tensor-power instances, m <= 8, r <= 2,
    p in {2, 3}."""
    grids = [(2, 6, 1), (2, 8, 1), (2, 8, 2), (2, 6, 2), (2, 4, 1),
             (3, 4, 1), (3, 5, 1), (3, 8, 1), (3, 6, 2), (3, 8, 2)]
    out = []
    count = 0
    while len(out) < 200:
        rng = substream_rng(303, count)
        count += 1
        p, m, r = grids[rng.randrange(len(grids))]
        params = CodeParams(m, r, p)
        bound = min(monomial_index(m, r, p).size, 6)
        try:
            E = sample_error_set(params, rng.randint(0, bound), rng)
        except SamplingError:
            continue
        out.append((params, E))
    return out


def test_criterion_03_and_04_space_oracle_and_codim():
    equal = 0
    codim_ok = 0
    instances = _oracle_instances()
    for params, E in instances:
        S = syndrome_from_errors(E)
        V = space_roots(S)
        W = vanishing_space(E.points, params.r + 1, params.m, params.p)
        equal += V == W
        codim_ok += V.codim == len(E)
    _report(3, "syndrome-system space equals nullspace oracle",
            equal == 200, f"{equal}/200 exact")
    _report(4, "codimension counts error points",
            codim_ok == 200, f"{codim_ok}/200 exact")


def test_criterion_05_restriction_oracle():
    grids = [(2, 6, 1), (2, 8, 1), (2, 8, 2), (3, 4, 1), (3, 5, 1), (3, 6, 2)]
    hits = 0
    count = 0
    done = 0
    while done < 200:
        rng = substream_rng(505, count)
        count += 1
        p, m, r = grids[rng.randrange(len(grids))]
        t = rng.randint(0, 5)
        pts = set()
        while len(pts) < t:
            pts.add(tuple(rng.randrange(p) for _ in range(m)))
        pts = sorted(pts)
        if rank(tensor_power_matrix(pts, r, p, m)) != t:
            continue  # the restriction identity assumes independent powers
        V = vanishing_space(pts, r + 1, m, p)
        E1 = [e[:-1] for e in pts if e[-1] == 0]
        hits += V.restrict_last_zero() == vanishing_space(E1, r + 1, m - 1, p)
        done += 1
    _report(5, "variable restriction equals brute-force vanishing space",
            hits == 200, f"{hits}/200 exact, fields F_2 and F_3")


def test_criterion_06_isolation_statistics():
    m, t = 16, 8
    trials = 20_000
    rng = substream_rng(606, 0)
    pts = set()
    while len(pts) < t:
        pts.add(tuple(rng.randrange(2) for _ in range(m)))
    pts = sorted(pts)
    counts = {e: 0 for e in pts}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        for _ in range(trials):
            vecs, consts = vv_sample(m, t, rng)
            surviving = [e for e in pts
                         if all(sum(a * x for a, x in zip(v, e)) % 2 == c
                                for v, c in zip(vecs, consts))]
            if len(surviving) == 1:
                counts[surviving[0]] += 1
    bound = 1 / (7 * t)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    threshold = bound - 3 * sigma
    worst = min(counts.values()) / trials
    _report(6, "per-point isolation frequency",
            worst >= threshold,
            f"min freq {worst:.5f} >= 1/56 - 3 sigma = {threshold:.5f} "
            f"over {trials} trials")


def test_criterion_07_root_extraction():
    ok = True
    worst = 0.0
    checked = 0
    for i, k in enumerate([16] * 50 + [40] * 50):
        rng = substream_rng(707, i)
        F = extension_field(2, k)
        deg = 50 if i % 2 == 0 else rng.randint(1, 50)
        roots = rng.sample(range(F.order), deg)
        f = UniPoly.from_roots(F, roots)
        t0 = time.perf_counter()
        got = berlekamp_roots(f)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok &= got == {rt: 1 for rt in roots} and dt < 1.0
        checked += 1
    _report(7, "split-polynomial root extraction",
            ok, f"{checked} polynomials over F_2^16 and F_2^40, "
                f"worst {worst:.3f}s < 1s")


def test_criterion_08_streaming_equals_batch(tmp_path):
    params = CodeParams(14, 1)
    idx = monomial_index(14, params.code_degree, 2)
    ok = True
    details = []
    for w in range(3):
        rng = substream_rng(808, w)
        P = MultilinearPoly(idx, [rng.randrange(2) for _ in range(idx.size)])
        E = sample_error_set(params, 9, rng)
        word = corrupt(encode(P, params), E)
        path = tmp_path / f"w{w}.bits"
        write_word_file(word, path)
        batch = syndrome_of_word(word)
        # warm pass amortizes the shared per-index tables, then measure
        stream = syndrome_streaming(params, _stream_values(path, params))
        tracemalloc.start()
        stream = syndrome_streaming(params, _stream_values(path, params))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        syn_bytes = sys.getsizeof(list(batch.entries)) + 28 * len(batch.entries)
        ok &= stream == batch and peak <= 2 * syn_bytes
        details.append(f"word {w}: identical={stream == batch}, "
                       f"peak {peak}B <= {2 * syn_bytes}B")
    _report(8, "streaming syndrome equals batch within memory bound",
            ok, "; ".join(details))


def test_criterion_09_derandomization_families():
    ok = True
    pairs_checked = 0
    for m in range(1, 5):
        F = extension_field(2, 10 * m)
        alpha = find_primitive_element(F)
        a, b = derandomized_flattening_vectors(F, alpha, m)
        lifted = []
        for x in range(1, 2 ** (m + 1)):
            xv = [x >> i & 1 for i in range(m + 1)]
            av = bv = 0
            for k, bit in enumerate(xv):
                if bit:
                    av ^= a[k]
                    bv ^= b[k]
            ok &= av != 0 and bv != 0
            lifted.append((av, bv))
        for i in range(len(lifted)):
            ai, bi = lifted[i]
            for j in range(i + 1, len(lifted)):
                aj, bj = lifted[j]
                ok &= ai != aj and bi != bj and ai != bj and aj != bi
                ok &= F.mul(ai, bj) != F.mul(aj, bi)  # distinct ratios
                pairs_checked += 1
    _report(9, "fixed flattening vectors separate all pairs",
            ok, f"exhaustive over m <= 4, {pairs_checked} pairs in F_2^10m")


def test_criterion_10_independence_preserved_by_affine_maps():
    hits = 0
    for i in range(100):
        rng = substream_rng(1010, i)
        m, r = [(6, 1), (8, 1), (8, 2)][i % 3]
        params = CodeParams(m, r)
        bound = min(monomial_index(m, r, 2).size, 8)
        E = sample_error_set(params, rng.randint(1, bound), rng)
        M = random_invertible(params.field, m, rng)
        b = tuple(rng.randrange(2) for _ in range(m))
        hits += check_ur_preserved(E, M, b)
    _report(10, "affine maps preserve tensor-power independence",
            hits == 100, f"{hits}/100 rank-preserving")


def test_timing_growth_report():
    # wall-clock decode time vs m at fixed r: report and check the medians
    # do not shrink (no hard constants asserted).  The trials run
    # round-robin over m, so that a burst of load on a shared host slows
    # every m alike instead of one m's whole block of trials.
    r = 1
    ms = (8, 10, 12)
    times = {m: [] for m in ms}
    for trial in range(7):
        for m in ms:
            params = CodeParams(m, r)
            rng = substream_rng(1111, 100 * m + trial)
            E = sample_error_set(params, T_PLANTED, rng)
            S = syndrome_from_errors(E)
            t0 = time.perf_counter()
            decompose(S, "randomized", rng, ext_degree=4 * m)
            times[m].append(time.perf_counter() - t0)
    medians = [statistics.median(times[m]) for m in ms]
    print("decode time vs m (r=1, tensor decoder): "
          + ", ".join(f"m={m}: {t * 1e3:.1f}ms"
                      for m, t in zip(ms, medians)), flush=True)
    assert medians[1] >= 0.7 * medians[0] and medians[2] >= 0.7 * medians[1]
