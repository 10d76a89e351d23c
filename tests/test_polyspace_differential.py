"""The annihilator root finders against restrictions of the space itself.

polyspace restricts V's annihilator; the reference restricts V, by
substituting a parametrization of a coset of the random frame's forms
(PolySpace.affine_image) or the value of the last variable
(PolySpace.restrict_last_const), and reads a codim-1 point off the
restricted space (helpers.unique_root).  Over F_2, F_3 and F_5, on full
vanishing spaces and on the spaces of corrupted syndromes, both must see
the same codimension under every restriction of the random frame and
every det branch, leave the rng in the same state and return the same
points or the same failure.  The decode path (run_decoder) splits another
basis of the annihilator, the rows H[K, :] at the constant slice's
pivots, and must match the root finders on V's in the same three ways.
"""

import random

import pytest

from helpers import subspace_parametrization, unique_root
from rmsyndrome import polyspace
from rmsyndrome.code import CodeParams, Syndrome, sample_error_set, syndrome_from_errors
from rmsyndrome.fields import prime_field
from rmsyndrome.linalg import FFMatrix, rank
from rmsyndrome.polyspace import (StructuralInconsistencyError, det_find_roots,
                                  find_roots, run_decoder, space_roots)

SHAPES = [(6, 1, 2, 4), (8, 1, 2, 6), (8, 2, 2, 5), (4, 1, 3, 3), (6, 1, 3, 4),
          (4, 1, 5, 3), (6, 2, 5, 2)]


def _spaces(m, r, p, t, seed):
    """The spaces of a planted syndrome and of two corrupted copies."""
    rng = random.Random(seed)
    E = sample_error_set(CodeParams(m, r, p), t, rng)
    entries = syndrome_from_errors(E).entries
    out = [space_roots(syndrome_from_errors(E))]
    for _ in range(2):
        bad = list(entries)
        i = rng.randrange(len(bad))
        bad[i] = (bad[i] + 1) % p
        out.append(space_roots(Syndrome(E.params, tuple(bad))))
    return out


def _recording_restrict(monkeypatch):
    """Record the alpha count of every restriction polyspace makes."""
    counts = []
    inner = polyspace._restrict

    def restrict(*args):
        alphas = inner(*args)
        counts.append(len(alphas))
        return alphas
    monkeypatch.setattr(polyspace, "_restrict", restrict)
    return counts


def reference_frame(m, p, rng):
    """The linear parts of m forms drawn as find_roots draws them: each
    from one rng.randrange(p^(m+1)) read as its base-p digits, all m drawn
    again until they are independent."""
    while True:
        frame = [[x // p ** v % p for v in range(m)]
                 for x in [rng.randrange(p ** (m + 1)) for _ in range(m)]]
        if rank(FFMatrix.from_rows(prime_field(p), frame)) == m:
            return frame


def reference_split(V, frame, codims, consts=(), W=None):
    """find_roots by substitution into V: W is V on the coset {C x = c} of
    the frame's first len(consts) forms (subspace_parametrization), and
    each child's codimension is appended to codims in the order the
    recursion visits them."""
    p = V.index.p
    W = V if W is None else W
    t = W.codim
    if t == 0:
        return []
    if t == 1:
        y = unique_root(W)
        if y is None:
            raise StructuralInconsistencyError("no read-off point")
        if not consts:
            return [y]
        x0, Nt = subspace_parametrization(frame[:len(consts)], consts, p)
        return [tuple((a + b) % p for a, b in zip(Nt.mat_vec(y), x0))]
    if len(consts) == len(frame):
        raise StructuralInconsistencyError("a point with codimension > 1")
    out, total = [], 0
    for c in range(p):
        x0, Nt = subspace_parametrization(frame[:len(consts) + 1], consts + (c,), p)
        child = V.affine_image(Nt, x0)
        codims.append(child.codim)
        out += reference_split(V, frame, codims, consts + (c,), child)
        total += child.codim
    if total != t:
        raise StructuralInconsistencyError("branch sum")
    return out


def reference_det(V, codims):
    """det_find_roots by restricting V to the last variable's values, the
    codimension of every branch appended to codims in the order the
    recursion visits them."""
    p = V.index.p
    t = V.codim
    if t == 0:
        return []
    if t == 1:
        e = unique_root(V)
        if e is None:
            raise StructuralInconsistencyError("no read-off point")
        return [e]
    if V.index.m == 0:
        raise StructuralInconsistencyError("zero variables")
    out, total = [], 0
    for c in range(p):
        W = V.restrict_last_const(c)
        codims.append(W.codim)
        out += [q + (c,) for q in reference_det(W, codims)]
        total += W.codim
    if total != t:
        raise StructuralInconsistencyError("branch sum")
    return out


@pytest.mark.parametrize("m,r,p,t", SHAPES)
def test_vv_draws_see_the_codimensions_of_the_substituted_spaces(m, r, p, t, monkeypatch):
    counts = _recording_restrict(monkeypatch)
    for seed in range(2):
        for V in _spaces(m, r, p, t, seed):
            ours, ref = random.Random(seed), random.Random(seed)
            codims = []
            counts.clear()
            try:
                want = sorted(reference_split(V, reference_frame(m, p, ref), codims))
            except StructuralInconsistencyError:
                want = None
            if want is None:
                with pytest.raises(StructuralInconsistencyError):
                    find_roots(V, ours)
            else:
                assert sorted(find_roots(V, ours).points) == want
            assert ours.getstate() == ref.getstate()
            assert counts == codims


@pytest.mark.parametrize("m,r,p,t", SHAPES)
def test_det_branches_have_the_codimensions_of_the_restricted_spaces(m, r, p, t, monkeypatch):
    counts = _recording_restrict(monkeypatch)
    for seed in range(3):
        for V in _spaces(m, r, p, t, seed):
            codims = []
            counts.clear()
            try:
                want = sorted(reference_det(V, codims))
            except StructuralInconsistencyError:
                want = None
            if want is None:
                with pytest.raises(StructuralInconsistencyError):
                    det_find_roots(V)
            else:
                assert sorted(det_find_roots(V).points) == want
            assert counts == codims


@pytest.mark.parametrize("m,r,p,t", SHAPES)
def test_the_decode_splits_the_rows_of_H_as_the_finders_split_V(m, r, p, t, monkeypatch):
    counts = _recording_restrict(monkeypatch)
    finders = {"det": lambda V, rng: det_find_roots(V), "rand": find_roots}
    for seed in range(4):
        E = sample_error_set(CodeParams(m, r, p), t, random.Random(seed))
        S = syndrome_from_errors(E)
        V = space_roots(S)
        for mode, find in finders.items():
            ours, ref = random.Random(seed), random.Random(seed)
            counts.clear()
            got = run_decoder(S, "polyspace", mode, ours).points
            decoded = list(counts)
            counts.clear()
            assert find(V, ref).points == got == E.points
            assert counts == decoded and (decoded or t == 1)
            assert ours.getstate() == ref.getstate()
