"""One coefficient of a factor product, computed without the package engine.

Differential reference for the block chain of `fpselberg.integrals` and for
`fpselberg.mpoly.expand`.  It reads a `FactorProduct` (prime, variable
count, scalar, and (form, exponent) factors) and shares no code with the
package: each power of a form is a binomial row from `math.comb` reduced
mod p, multiplied in by its own shift-adds on a dense int64 tensor.
Factors go in ascending order of their last variable, and an axis is
collapsed to its target exponent once no later factor touches it, so the
live tensor stays well below the target box for chained variable groups.

`relabelled` renames the variables of a product, for the symmetry tests.
"""

import math

import numpy as np

from fpselberg.mpoly import FactorProduct, LinearForm


def _power(form, e, p):
    """form**e as [({variable: exponent}, residue)], zero residues dropped."""
    monomials = [(v, c % p) for v, c in [(None, form.constant), *form.terms] if c % p]
    if not monomials:
        return []
    if len(monomials) == 1:
        (v, c), = monomials
        return [({} if v is None else {v: e}, pow(c, e, p))]
    (u, cu), (v, cv) = monomials
    row = [(math.comb(e, d) * pow(cu, d, p) * pow(cv, e - d, p) % p, d) for d in range(e + 1)]
    return [({w: x for w, x in ((u, d), (v, e - d)) if w is not None}, r) for r, d in row if r]


def coefficient(fp, target):
    """The coefficient of x^target in fp, as an int in [0, p)."""
    p, nv = fp.ctx.p, fp.num_vars
    factors = sorted(((form, e) for form, e in fp.factors if e),
                     key=lambda item: max((v for v, _ in item[0].terms), default=-1))
    last = {v: i for i, (form, _) in enumerate(factors) for v, _ in form.terms}
    if any(target[v] for v in range(nv) if v not in last):
        return 0  # a variable no factor touches has exponent 0
    live = np.full((1,) * nv, fp.scalar % p, dtype=np.int64)
    for i, (form, e) in enumerate(factors):
        axes = [v for v, _ in form.terms]
        shape = list(live.shape)
        for v in axes:
            shape[v] = target[v] + 1
        out = np.zeros(shape, dtype=np.int64)
        for exponents, residue in _power(form, e, p):
            if any(d > target[v] for v, d in exponents.items()):
                continue
            src, dst = [slice(None)] * nv, [slice(None)] * nv
            for v in axes:
                d = exponents.get(v, 0)
                n = min(live.shape[v], shape[v] - d)
                src[v], dst[v] = slice(0, n), slice(d, d + n)
            out[tuple(dst)] += residue * live[tuple(src)]
        live = out % p
        for v in axes:
            if last[v] == i:
                live = live[(slice(None),) * v + (slice(target[v], target[v] + 1),)]
    return int(live.reshape(-1)[0])


def relabelled(fp, perm):
    """fp with variable i renamed perm[i] (perm a permutation of the variables)."""
    if sorted(perm) != list(range(fp.num_vars)):
        raise ValueError("perm must be a permutation of the variables")
    forms = [(LinearForm(form.constant, tuple((perm[v], c) for v, c in form.terms)), e)
             for form, e in fp.factors]
    return FactorProduct(fp.ctx, fp.num_vars, tuple(forms), fp.scalar)
