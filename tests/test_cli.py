import csv
import json
import os
import time

import pytest

from rmsyndrome import polyspace
from rmsyndrome.cli import main, substream_rng, substream_seed
from rmsyndrome.code import (CodeParams, ErrorSet, corrupt, encode,
                             read_word_file, sample_error_set,
                             syndrome_from_errors, write_syndrome_file,
                             write_word_file)
from rmsyndrome.polynomials import MultilinearPoly, monomial_index, point_to_int


def _write_poly(path, terms):
    path.write_text(json.dumps([[list(e), c] for e, c in terms]))


def _setup_corrupted(tmp_path, rng, m=8, r=1, t=5, p=2):
    params = CodeParams(m, r, p)
    idx = monomial_index(m, params.code_degree, p)
    P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
    E = sample_error_set(params, t, rng)
    word = corrupt(encode(P, params), E, rng)
    wpath = tmp_path / "word.bits"
    write_word_file(word, wpath)
    spath = tmp_path / "synd.json"
    assert main(["syndrome", "--word", str(wpath), "--out", str(spath)]) == 0
    return params, E, wpath, spath


def test_substream_scheme_is_stable():
    assert substream_seed(0, 0) == substream_seed(0, 0)
    assert substream_seed(0, 0) != substream_seed(0, 1)
    assert substream_rng(5, 1).random() == substream_rng(5, 1).random()


def test_encode_zero_and_constant(tmp_path):
    poly = tmp_path / "p.json"
    out = tmp_path / "w.bits"
    _write_poly(poly, [])
    assert main(["encode", "--m", "6", "--r", "1", "--poly", str(poly),
                 "--out", str(out)]) == 0
    assert read_word_file(out).values == 0
    _write_poly(poly, [([0] * 6, 1)])
    assert main(["encode", "--m", "6", "--r", "1", "--poly", str(poly),
                 "--out", str(out)]) == 0
    assert read_word_file(out).values == (1 << 64) - 1


def test_encode_rejects_high_degree(tmp_path):
    poly = tmp_path / "p.json"
    _write_poly(poly, [([1, 1, 1, 0, 0, 0], 1)])  # degree 3 > 6 - 2*2 = 2... code degree bound
    rc = main(["encode", "--m", "6", "--r", "2", "--poly", str(poly),
               "--out", str(tmp_path / "w.bits")])
    assert rc == 4


@pytest.mark.parametrize("text", [
    '{"a": 1}',
    '[[[1, 0], 1]]',
    '[[[1, 0, 0, 0, 0, 0], "x"]]',
    '[[1, 1]]',
], ids=["top-level-object", "short-exponents", "string-coefficient", "bare-pair"])
def test_encode_malformed_polynomial_file_is_invalid_input(tmp_path, text):
    poly = tmp_path / "p.json"
    poly.write_text(text)
    assert main(["encode", "--m", "6", "--r", "1", "--poly", str(poly),
                 "--out", str(tmp_path / "w.bits")]) == 3


def test_encode_adds_repeated_exponent_vectors(tmp_path):
    poly, out = tmp_path / "p.json", tmp_path / "w.bin"
    _write_poly(poly, [([1, 0, 0, 0], 1), ([1, 0, 0, 0], 1)])
    assert main(["encode", "--m", "4", "--r", "0", "--p", "3", "--poly", str(poly),
                 "--out", str(out)]) == 0
    # 2 X_1 at point i, whose first coordinate is i mod 3
    assert read_word_file(out).values == tuple(2 * i % 3 for i in range(81))


def test_syndrome_of_codeword_is_zero(tmp_path):
    poly = tmp_path / "p.json"
    _write_poly(poly, [([1, 1, 0, 0, 0, 0, 0, 0], 1), ([0] * 8, 1)])
    wpath = tmp_path / "w.bits"
    assert main(["encode", "--m", "8", "--r", "1", "--poly", str(poly),
                 "--out", str(wpath)]) == 0
    spath = tmp_path / "s.json"
    assert main(["syndrome", "--word", str(wpath), "--out", str(spath)]) == 0
    assert all(v == 0 for v in json.loads(spath.read_text())["entries"])


def test_stream_and_batch_syndrome_files_identical(tmp_path, rng):
    _, _, wpath, spath = _setup_corrupted(tmp_path, rng)
    spath2 = tmp_path / "synd_stream.json"
    assert main(["syndrome", "--word", str(wpath), "--stream",
                 "--out", str(spath2)]) == 0
    assert spath.read_bytes() == spath2.read_bytes()


def test_stream_and_batch_syndrome_files_identical_f3(tmp_path, rng):
    _, _, wpath, spath = _setup_corrupted(tmp_path, rng, m=5, t=4, p=3)
    spath2 = tmp_path / "synd_stream.json"
    assert main(["syndrome", "--word", str(wpath), "--stream",
                 "--out", str(spath2)]) == 0
    assert spath.read_bytes() == spath2.read_bytes()
    assert any(json.loads(spath.read_text())["entries"])


@pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
@pytest.mark.parametrize("data,sidecar", [
    (bytes([5]) * 81, {"m": 4, "r": 1, "p": 3}),
    (bytes(81), [1, 2]),
    (bytes(81), {"m": 4.7, "r": 1, "p": 3}),
    (bytes(81), {"m": "x", "r": 1, "p": 3}),
    (bytes(80), {"m": 4, "r": 1, "p": 3}),
    (bytes(3), {"m": 4, "r": 1, "p": 2}),  # 16 bits need 2 bytes
    (bytes([0xF0]), {"m": 2, "r": 0, "p": 2}),  # 4 bits, 4 set padding bits
], ids=["symbol-out-of-range", "sidecar-list", "float-m", "string-m",
        "short-file", "long-f2-file", "f2-padding-bits"])
def test_malformed_word_file_is_invalid_input(tmp_path, data, sidecar, stream):
    wpath = tmp_path / "word.bin"
    wpath.write_bytes(data)
    (tmp_path / "word.bin.json").write_text(json.dumps(sidecar))
    out = tmp_path / "s.json"
    argv = ["syndrome", "--word", str(wpath), "--out", str(out)]
    assert main(argv + (["--stream"] if stream else [])) == 3
    assert not out.exists()


def test_decode_zero_syndrome(tmp_path):
    params = CodeParams(6, 1)
    spath = tmp_path / "s.json"
    write_syndrome_file(syndrome_from_errors(ErrorSet(params, ())), spath)
    out = tmp_path / "locs.json"
    assert main(["decode", "--syndrome", str(spath), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == []


def test_decode_all_algorithms_identical_files(tmp_path, rng):
    params, E, _, spath = _setup_corrupted(tmp_path, rng)
    outputs = []
    for name, extra in [
        ("det", ["--algo", "polyspace", "--mode", "det"]),
        ("rand", ["--algo", "polyspace", "--mode", "rand", "--seed", "3"]),
        ("jrand", ["--algo", "jennrich", "--mode", "rand", "--seed", "4",
                   "--ext-degree", "32"]),
        ("jder", ["--algo", "jennrich", "--mode", "derand", "--ext-degree", "32"]),
        ("jaxis", ["--algo", "jennrich", "--mode", "axis"]),
    ]:
        out = tmp_path / f"locs_{name}.json"
        assert main(["decode", "--syndrome", str(spath), "--out", str(out)]
                    + extra) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    located = [tuple(e) for e in json.loads(outputs[0].decode())]
    assert tuple(located) == E.points  # sorted in point-enumeration order


def test_decode_dump_space(tmp_path, rng):
    params, E, _, spath = _setup_corrupted(tmp_path, rng, t=3)
    out = tmp_path / "locs.json"
    dump = tmp_path / "space.json"
    assert main(["decode", "--syndrome", str(spath), "--out", str(out),
                 "--dump-space", str(dump)]) == 0
    space = json.loads(dump.read_text())
    idx = monomial_index(8, 2, 2)
    for poly_obj in space:
        P = MultilinearPoly.from_terms(idx, {tuple(e): c for e, c in poly_obj})
        assert all(P.evaluate(e) == 0 for e in E.points)


def test_decode_failure_exit_code(tmp_path, rng):
    params = CodeParams(8, 1)
    E = sample_error_set(params, 2, rng)
    entries = list(syndrome_from_errors(E).entries)
    entries[-1] ^= 1
    from rmsyndrome.code import Syndrome
    spath = tmp_path / "bad.json"
    write_syndrome_file(Syndrome(params, tuple(entries)), spath)
    out = tmp_path / "locs.json"
    for extra in (["--algo", "polyspace", "--mode", "det"],
                  ["--algo", "jennrich", "--mode", "rand", "--ext-degree", "32"]):
        assert main(["decode", "--syndrome", str(spath), "--out", str(out)]
                    + extra) == 2


def test_decode_without_a_start_vector_exits_2(tmp_path, capsys):
    # over F_3 the syndrome 1 at x_1^2 gives the default decoder a zero
    # vector to split: a decode failure, not a traceback
    from rmsyndrome.code import Syndrome
    params = CodeParams(4, 1, 3)
    entries = [0] * params.syndrome_index.size
    entries[params.syndrome_index.position[point_to_int((2, 0, 0, 0), 3)]] = 1
    spath = tmp_path / "synd.json"
    write_syndrome_file(Syndrome(params, tuple(entries)), spath)
    assert main(["decode", "--syndrome", str(spath),
                 "--out", str(tmp_path / "locs.json")]) == 2
    assert "decode failure: zero start vector" in capsys.readouterr().err


def test_decode_over_a_prime_above_the_bound_exits_4_at_once(tmp_path, capsys):
    # every decoder loops over F_p; without the bound the default decoder
    # spent over a minute on this 3-entry syndrome over F_10007
    from rmsyndrome.code import Syndrome
    from rmsyndrome.polyspace import MAX_PRIME
    spath = tmp_path / "synd.json"
    write_syndrome_file(Syndrome(CodeParams(2, 0, 10007), (1, 5, 7)), spath)
    for extra in ([], ["--algo", "polyspace", "--mode", "det"]):
        start = time.perf_counter()
        assert main(["decode", "--syndrome", str(spath),
                     "--out", str(tmp_path / "locs.json")] + extra) == 4
        assert time.perf_counter() - start < 0.5
    assert f"above MAX_PRIME = {MAX_PRIME}" in capsys.readouterr().err


@pytest.mark.parametrize("m, r, t", [(17, 2, 5), (23, 1, 6)])
def test_experiment_derand_decodes_where_the_field_order_does_not_factor(tmp_path, m, r, t):
    # 2^170 - 1 and 2^230 - 1 (the default D = 10m) exhaust factorize's
    # budget; the derandomized vectors need no factoring
    out = tmp_path / "derand.csv"
    assert main(["experiment", "--m", str(m), "--r", str(r), "--t", str(t),
                 "--trials", "2", "--algo", "jennrich", "--mode", "derand",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    trials = [row for row in rows if row["record"] == "trial"]
    assert [(row["status"], row["success"]) for row in trials] == [("ok", "1")] * 2


def test_experiment_never_records_a_partial_isolation_as_ok(tmp_path, monkeypatch):
    # over F_31 one constraint per draw isolates (two made every trial a
    # partial set, recorded ok with success 0); a partial set that
    # remains is a decoding failure
    out = tmp_path / "p31.csv"
    args = ["experiment", "--m", "4", "--r", "1", "--p", "31", "--t", "2",
            "--trials", "5", "--algo", "polyspace", "--mode", "rand", "--out", str(out)]
    assert main(args) == 0
    trials = [row for row in csv.DictReader(out.read_text().splitlines())
              if row["record"] == "trial"]
    assert [(row["status"], row["success"]) for row in trials] == [("ok", "1")] * 5
    monkeypatch.setattr(polyspace, "find_roots",
                        lambda V, rng: ErrorSet(CodeParams(4, 1, 31), ()))
    assert main(args) == 0
    trials = [row for row in csv.DictReader(out.read_text().splitlines())
              if row["record"] == "trial"]
    assert [(row["status"], row["success"]) for row in trials] == [("decode_failed", "0")] * 5


def test_exit_codes_for_bad_input(tmp_path):
    assert main(["decode", "--syndrome", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o.json")]) == 3
    assert main(["nonsense"]) == 3
    assert main(["experiment", "--m", "3", "--r", "1", "--t", "1",
                 "--trials", "1", "--out", str(tmp_path / "e.csv")]) == 4
    assert main(["experiment", "--m", "8", "--r", "1", "--trials", "1",
                 "--out", str(tmp_path / "e.csv")]) == 4  # neither --t nor --t-range
    assert main(["experiment", "--m", "8", "--r", "1", "--t", "2",
                 "--algo", "jennrich", "--mode", "det", "--trials", "1",
                 "--out", str(tmp_path / "e.csv")]) == 4  # invalid combo


@pytest.mark.parametrize("text", [
    '{"params": {"m": 4, "r": 1, "p": 2}, "entries": [2%s]}' % (", 0" * 14),
    '{"params": {"m": 4, "r": 1, "p": 2}, "entries": ["1"%s]}' % (", 0" * 14),
    '[{"params": {"m": 4, "r": 1, "p": 2}}]',
    '{"params": ',
    # wrong length for m = 400: must fail before the 10^7-monomial index is built
    '{"params": {"m": 400, "r": 1, "p": 2}, "entries": [0, 1]}',
], ids=["entry-out-of-range", "string-entry", "top-level-list", "not-json",
        "length-huge-m"])
def test_decode_malformed_syndrome_file_is_invalid_input(tmp_path, text):
    spath = tmp_path / "s.json"
    spath.write_text(text)
    assert main(["decode", "--syndrome", str(spath),
                 "--out", str(tmp_path / "o.json")]) == 3


def test_experiment_reproducible_and_summary(tmp_path):
    args = ["experiment", "--m", "8", "--r", "1", "--t", "4", "--trials", "8",
            "--seed", "11", "--algo", "polyspace", "--mode", "det",
            "--omit-timing"]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(c1)]) == 0
    assert main(args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    rows = list(csv.DictReader(c1.read_text().splitlines()))
    trials = [r for r in rows if r["record"] == "trial"]
    summary = [r for r in rows if r["record"] == "summary"]
    assert len(trials) == 8 and len(summary) == 1
    assert all(r["success"] == "1" for r in trials)
    assert summary[0]["success_rate"] == "1.0"


@pytest.mark.parametrize("m", [64, 128])
def test_experiment_decodes_every_trial_at_m_64(tmp_path, m):
    # the paper's regime at r = 1: a 2^m-point code, t = m errors, with
    # the default decoder from a cold position table
    out = tmp_path / f"m{m}.csv"
    assert main(["experiment", "--m", str(m), "--r", "1", "--t", str(m),
                 "--trials", "2", "--omit-timing", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    trials = [r for r in rows if r["record"] == "trial"]
    assert len(trials) == 2 and all(r["success"] == "1" for r in trials)


@pytest.mark.parametrize("text", ["3", "1:x", "1:2:3"])
def test_malformed_t_range_is_a_usage_error(tmp_path, capsys, text):
    args = ["experiment", "--m", "8", "--r", "1", "--trials", "1",
            "--out", str(tmp_path / "e.csv"), "--t-range"]
    assert main(args + [text]) == 3
    assert "argument --t-range: expected LO:HI" in capsys.readouterr().err
    assert main(args + ["5:3"]) == 4  # well formed, but empty
    assert "empty --t-range" in capsys.readouterr().err


def test_experiment_t_sweep_records_sampling_failures(tmp_path):
    # t sweeps past the independence bound |M_1^4| = 5: recorded, no crash
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--m", "4", "--r", "1", "--t-range", "4:7",
                 "--trials", "3", "--seed", "5", "--algo", "polyspace",
                 "--mode", "det", "--omit-timing", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    t6 = [r for r in rows if r["record"] == "trial" and r["t"] in ("6", "7")]
    assert t6 and all(r["status"] == "sampling_failed" for r in t6)


def test_experiment_jennrich_modes(tmp_path):
    out = tmp_path / "j.csv"
    for extra, mode in [
        (["--algo", "jennrich", "--mode", "derand", "--ext-degree", "32"], "derand"),
        ([], "axis"),  # the default decoder, recorded by its resolved mode
    ]:
        assert main(["experiment", "--m", "8", "--r", "1", "--t", "4",
                     "--trials", "4", "--seed", "2", "--omit-timing",
                     "--out", str(out)] + extra) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert all(r["algo"] == "jennrich" and r["mode"] == mode for r in rows)
        assert all(r["success"] == "1" for r in rows if r["record"] == "trial")


def test_experiment_worker_pool_matches_serial(tmp_path):
    args = ["experiment", "--m", "6", "--r", "1", "--t", "3", "--trials", "6",
            "--seed", "9", "--algo", "polyspace", "--mode", "rand",
            "--omit-timing"]
    serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(args + ["--out", str(serial)]) == 0
    os.environ["RMS_THREADS"] = "3"
    try:
        assert main(args + ["--out", str(pooled)]) == 0
    finally:
        del os.environ["RMS_THREADS"]
    assert serial.read_bytes() == pooled.read_bytes()
