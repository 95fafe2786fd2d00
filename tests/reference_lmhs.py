"""The full-probe Deligne bigrading, kept as a test oracle.

This is ``hodgecalc.lmhs.deligne_bigrading`` as it was before it skipped
the levels p > n and shared each conj(F^q) ∩ W_m between probes: every
(p, q) in the window is evaluated from the closed formula on its own.
``test_shared_paths.py`` asserts that the library gives the same pieces and
the same R-split and effectivity flags.
"""

from __future__ import annotations

from hodgecalc.lmhs import DeligneBigrading, flag_level, flag_levels
from hodgecalc.matrices import (
    sub_conj, sub_dim, sub_equal, sub_intersect, sub_sum_ambient, sub_zero,
)


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
