"""Checks that only the tests use: oracles for conditions the library
decoders establish (or retry on) without computing them directly."""

from rmsyndrome.code import ErrorSet, tensor_power
from rmsyndrome.fields import prime_field
from rmsyndrome.polynomials import (MultilinearPoly, _affine_map,
                                    substitution_matrix)


def check_flattening_conditions(F, a, b, E: ErrorSet) -> bool:
    """Do the weights separate the error set?  True iff the 2t values
    <a, e^{<=1}>, <b, e^{<=1}> are nonzero and pairwise distinct and the
    ratios a_i / b_i are pairwise distinct."""
    avals, bvals = _weight_values(F, a, b, E)
    t = len(avals)
    allv = avals + bvals
    if any(v == 0 for v in allv) or len(set(allv)) < 2 * t:
        return False
    ratios = {F.mul(ai, F.inv(bi)) for ai, bi in zip(avals, bvals)}
    return len(ratios) == t


def _weight_values(F, a, b, E: ErrorSet):
    p = E.params.p
    avals, bvals = [], []
    for e in E.points:
        x = tensor_power(e, 1, p)
        if p == 2:
            av = bv = 0
            for k, bit in enumerate(x):
                if bit:
                    av ^= a[k]
                    bv ^= b[k]
        else:
            av = bv = 0
            for k, c in enumerate(x):
                if c:
                    av = F.add(av, F.mul(c, a[k]))
                    bv = F.add(bv, F.mul(c, b[k]))
        avals.append(av)
        bvals.append(bv)
    return avals, bvals


def affine_substitute(P: MultilinearPoly, mat, b) -> MultilinearPoly:
    """reduce(P(Ay + b)) in k variables, for an m x k matrix A (rows as
    sequences) of full column rank."""
    idx = P.index
    mat_rows, target = _affine_map(idx, mat, b)
    S = substitution_matrix(idx, mat_rows, tuple(b))
    if idx.p == 2:
        acc = 0
        for i, c in enumerate(P.coeffs):
            if c:
                acc ^= S.packed_row(i)
        return MultilinearPoly.from_packed(target, acc)
    f = prime_field(idx.p)
    acc = [0] * target.size
    for i, c in enumerate(P.coeffs):
        if c:
            row = S.row(i)
            for j in range(target.size):
                if row[j]:
                    acc[j] = f.add(acc[j], f.mul(c, row[j]))
    return MultilinearPoly(target, acc)
