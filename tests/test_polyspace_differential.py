"""The annihilator root finders against restrictions of the space itself.

polyspace restricts V's annihilator; the reference restricts V, by
substituting a parametrization of the sampled subspace
(PolySpace.affine_image) or the value of the last variable
(PolySpace.restrict_last_const), and reads a codim-1 point off the
restricted space (helpers.unique_root).  Over F_2, F_3 and F_5, on full
vanishing spaces and on the spaces of corrupted syndromes, both must see
the same codimension under every VV draw and every det branch, leave the
rng in the same state and return the same points or the same failure.
"""

import math
import random
import warnings

import pytest

from helpers import subspace_parametrization, unique_root
from rmsyndrome import polyspace
from rmsyndrome.code import (CodeParams, Syndrome, sample_error_set,
                             syndrome_from_errors, tensor_power)
from rmsyndrome.polyspace import (IsolationBoundWarning, PartialRecoveryWarning,
                                  StructuralInconsistencyError, det_find_roots,
                                  find_roots, space_roots, vv_sample)

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


def reference_find_roots(V, rng, codims, budget=None):
    """find_roots by substitution into V: the same draws and checks, the
    codimension of each restricted space appended to codims."""
    idx = V.index
    m, p, t = idx.m, idx.p, V.codim
    if t == 0:
        return ()
    direct = unique_root(V) if t == 1 else None
    if direct is not None:
        return (direct,)
    if budget is None:
        budget = math.ceil(100 * t * math.log2(t)) if t > 1 else 0
    found = set()
    for _ in range(budget):
        vecs, consts = vv_sample(m, t, rng, p)
        x0, Nt = subspace_parametrization(vecs, consts, p)
        W = V.affine_image(Nt, x0)
        codims.append(W.codim)
        y = unique_root(W) if W.codim == 1 else None
        if y is None:
            continue
        e = tuple((a + b) % p for a, b in zip(Nt.mat_vec(y), x0))
        if e in found or any(V.basis.mat_vec(tensor_power(e, idx.t, p))):
            continue
        found.add(e)
        if len(found) == t:
            break
    return tuple(found)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        warnings.simplefilter("ignore", PartialRecoveryWarning)
        for seed in range(2):
            for budget, V in zip((None, 30, 30), _spaces(m, r, p, t, seed)):
                ours, ref = random.Random(seed), random.Random(seed)
                codims = []
                counts.clear()
                got = find_roots(V, ours, budget)
                assert set(got.points) == set(reference_find_roots(V, ref, codims, budget))
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
