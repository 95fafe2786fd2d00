"""The full-probe Deligne bigrading and the pivoted LDL positivity test,
kept as test oracles.

``deligne_bigrading`` is ``hodgecalc.lmhs.deligne_bigrading`` as it was
before it skipped the levels p > n and shared each conj(F^q) ∩ W_m between
probes: every (p, q) in the window is evaluated from the closed formula on
its own.  ``test_shared_paths.py`` asserts that the library gives the same
pieces and the same R-split and effectivity flags.

``hermitian_psd_status`` is the pivoted LDL in ``GaussianRational``
arithmetic that the library ran before its fraction-free elimination;
``test_int_oracles.py`` asserts the same (psd, rank, pd).

``primitive_parts`` is the loop that ``verify_polarized_lmhs`` and
``associated_graded_orbit`` each ran before ``lmhs._primitive_parts``: all
powers of N built first, then ``kernel_within`` of N^(i+1) on each graded
subspace; ``test_lmhs.py`` asserts the same (i, P_i, N^i) triples.

``flag_is_stable`` is the loop that ``verify_polarized_lmhs`` ran before it
stacked the images of every nilpotent: for each N_j and each p, the
canonical image N_j F^p and its own containment in F^(p-1), by the rank
test of ``reference_matrices.sub_contains``; ``test_lmhs.py`` asserts the
same "N F^p inside F^(p-1)" outcome.
"""

from __future__ import annotations

from hodgecalc.lmhs import DeligneBigrading, flag_level, flag_levels
from hodgecalc.matrices import (
    Mat, kernel_matrix, sub_canonical, sub_conj, sub_dim, sub_equal, sub_image,
    sub_intersect, sub_sum_ambient, sub_zero,
)
from reference_matrices import sub_contains


def deligne_bigrading(wf, flag) -> DeligneBigrading:
    """I^{p,q} = F^p ∩ W_{p+q} ∩ (conj(F^q) ∩ W_{p+q}
    + sum_{j>=1} conj(F^{q-j}) ∩ W_{p+q-j-1}), probed over the whole window."""
    n = wf.weight
    d = wf.ambient
    levels = flag_levels(flag, n, d)

    def f_level(p):
        return flag_level(levels, p, n, d)

    pieces = {}
    lo, hi = -n - 1, 2 * n + 1
    for p in range(lo, hi + 1):
        for q in range(lo, hi + 1):
            k = p + q
            if k < 0 or k > 2 * n:
                continue
            wk = wf.level(k)
            extra = [sub_intersect(sub_conj(f_level(q)), wk)]
            for j in range(1, 2 * n + 2):
                if k - j - 1 < 0:
                    break
                extra.append(sub_intersect(sub_conj(f_level(q - j)), wf.level(k - j - 1)))
            rhs = sub_sum_ambient(extra, d)
            piece = sub_intersect(sub_intersect(f_level(p), wk), rhs)
            if sub_dim(piece):
                pieces[(p, q)] = piece
    r_split = all(sub_equal(sub_conj(m), pieces.get((q, p), sub_zero(d)))
                  for (p, q), m in pieces.items())
    effective = all(0 <= p <= n and 0 <= q <= n for (p, q) in pieces)
    return DeligneBigrading(n, d, pieces, r_split, effective)


def hermitian_psd_status(h: Mat):
    """(is_psd, rank, is_pd) of a Hermitian matrix by exact pivoted LDL."""
    n = h.rows
    a = [[h[i, j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if a[i][i].im:
            raise ValueError("matrix is not Hermitian")
    active = list(range(n))
    rk = 0
    while active:
        pivot = None
        for i in active:
            di = a[i][i].re
            if di < 0:
                return False, rk, False
            if di > 0 and pivot is None:
                pivot = i
        if pivot is None:
            # all remaining diagonal entries are zero: PSD iff the block is zero
            for i in active:
                for j in active:
                    if a[i][j]:
                        return False, rk, False
            return True, rk, rk == n
        rk += 1
        p = a[pivot][pivot]
        rest = [i for i in active if i != pivot]
        for i in rest:
            for j in rest:
                a[i][j] = a[i][j] - a[i][pivot] * a[pivot][j] / p
        active = rest
    return True, rk, rk == n


def kernel_within(space: Mat, op: Mat) -> Mat:
    """{v in the row space of `space` : op v = 0}, as a canonical basis."""
    if not space.rows:
        return space
    coeffs = kernel_matrix((space @ op.transpose()).transpose())
    return sub_canonical(coeffs @ space)


def primitive_parts(space, n: Mat, weight: int):
    powers = [Mat.identity(n.rows)]
    for _ in range(weight + 1):
        powers.append(powers[-1] @ n)
    out = []
    for i in range(0, weight + 1):
        prim = kernel_within(space(weight + i), powers[i + 1])
        if prim.rows == 0:
            continue
        out.append((i, prim, powers[i]))
    return out


def flag_is_stable(spec) -> bool:
    """N_j F^p ⊆ F^(p-1) for every nilpotent N_j and every p = 1..weight."""
    levels = flag_levels(spec.flag, spec.weight, spec.dim)
    stable = True
    for nmat in spec.nilpotents:
        for p in range(1, spec.weight + 1):
            if not sub_contains(levels[p - 1], sub_image(nmat, levels[p])):
                stable = False
    return stable
