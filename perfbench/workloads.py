"""The four decode workloads: how each instance is generated from the
benchmark seed, and which public call decodes it.

Every instance i of a run draws from ``cli.substream_rng(seed, i)``: the
error set comes from ``code.sample_error_set`` and, for the word workload,
a random codeword and random nonzero error magnitudes follow from the same
stream.  The decoder receives only the syndrome (or the word); the planted
set is kept aside to check the answer.  The randomized workload hands the
decoder the rest of the instance's substream, restored from a saved state
before every decode so that repeated decodes of one instance do the same
work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rmsyndrome import cli, code, polyspace
from rmsyndrome.polynomials import MultilinearPoly, monomial_index


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    r: int
    p: int
    t: int
    algorithm: str
    mode: str
    from_word: bool
    why: str

    @property
    def params(self) -> code.CodeParams:
        return code.CodeParams(self.m, self.r, self.p)


WORKLOADS = {w.name: w for w in (
    Workload("f2-det-m20", 20, 1, 2, 16, "polyspace", "det", False,
             "default decoder (polyspace det) at the largest F_2 size; det "
             "recursion, packed F_2 rref and space_roots dominate; moves "
             "with a faster default decoder"),
    Workload("f2-jennrich-m12", 12, 1, 2, 8, "jennrich", "derand", False,
             "paper's tensor route by name (jennrich derand, D=120); "
             "ExtField mul, berlekamp_roots and linalg over F_2^120 "
             "dominate; default-decoder changes must not move it"),
    Workload("f3-word-m7", 7, 1, 3, 5, "polyspace", "det", True,
             "received word over F_3: syndrome_of_word over all 2187 "
             "symbols is ~94% of the work, then odd-p det decode with error "
             "magnitudes; decoder changes should not move it"),
    Workload("f2-isolation-m12", 12, 1, 2, 8, "polyspace", "rand", False,
             "Valiant-Vazirani isolation (polyspace rand), the only user of "
             "affine_image, substitution_matrix, restrict_last_zero and "
             "vv_sample; wide per-decode spread"),
)}


@dataclass
class Instance:
    index: int
    planted: tuple          # the planted error points, sorted
    syndrome: object        # code.Syndrome, or None for word workloads
    word: object            # code.ReceivedWord, or None
    rng_state: tuple        # substream state after the input was drawn

    def decoder_rng(self) -> random.Random:
        rng = random.Random()
        rng.setstate(self.rng_state)
        return rng


def make_instance(w: Workload, seed: int, index: int) -> Instance:
    rng = cli.substream_rng(seed, index)
    params = w.params
    planted = code.sample_error_set(params, w.t, rng)
    syndrome = word = None
    if w.from_word:
        cw_index = monomial_index(w.m, params.code_degree, w.p)
        poly = MultilinearPoly(cw_index, [rng.randrange(w.p) for _ in range(cw_index.size)])
        word = code.corrupt(code.encode(poly, params), planted, rng)
    else:
        syndrome = code.syndrome_from_errors(planted)
    return Instance(index, planted.points, syndrome, word, rng.getstate())


def decode(w: Workload, inst: Instance, rng=None):
    """The timed public call: input -> (located ErrorSet, residual).

    ``rng`` is the decoder's generator for the randomized workload; build
    it with ``inst.decoder_rng()`` outside the timed region."""
    S = code.syndrome_of_word(inst.word) if w.from_word else inst.syndrome
    if w.mode == "det":
        return polyspace.locate_and_correct(S)
    if w.mode == "derand":
        return polyspace.locate_and_correct(S, "jennrich", "derand")
    return polyspace.locate_and_correct(S, "polyspace", "rand", rng)


def instance_to_json(inst: Instance) -> dict:
    """Plain-data form, so a fresh process can decode the instance without
    warming any cache of the library by generating it."""
    return {"index": inst.index, "planted": [list(e) for e in inst.planted],
            "syndrome": None if inst.syndrome is None else list(inst.syndrome.entries),
            "word": None if inst.word is None else inst.word.to_bytes().hex(),
            "rng_state": [inst.rng_state[0], list(inst.rng_state[1]), inst.rng_state[2]]}


def instance_from_json(w: Workload, d: dict) -> Instance:
    params = w.params
    syndrome = word = None
    if d["syndrome"] is not None:
        syndrome = code.Syndrome(params, tuple(d["syndrome"]))
    if d["word"] is not None:
        word = code.ReceivedWord.from_bytes(params, bytes.fromhex(d["word"]))
    version, state, gauss = d["rng_state"]
    return Instance(d["index"], tuple(tuple(e) for e in d["planted"]),
                    syndrome, word, (version, tuple(state), gauss))
