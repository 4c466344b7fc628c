"""Dense breakpoint simplex for the L1 match

    min sum_j |x_j - g_j|  s.t.  Ax = b, x >= 0,

one column per variable, warm-started from a caller-supplied basis that is
feasible with every nonbasic x at 0. Each cost |x - g| is piecewise linear
with its breakpoint at g (Fourer 1985, A simplex algorithm for
piecewise-linear programming I, Math. Prog. 33):

- a nonbasic x sits at 0 or at g;
- a basic x lives on one segment, [0, g] with slope -1 or [g, inf) with
  slope +1 (a zero g has only the second); the first round reads each
  segment from the crash values;
- pricing reads the slope on the side x_j would move to: an entering x_j
  gains max(z_j + up_j, down_j - z_j) per unit, with z = c_B B^-1 A and
  per-variable offsets up/down that change in O(1) per pivot;
- the ratio test stops a basic x at the ends of its segment, and an entering
  x that reaches its own breakpoint first flips between 0 and g with no basis
  change and no tableau update. A flip counts as an iteration.

Dantzig pricing with a Bland fallback after a degenerate stall; iteration cap
50 * #variables; reduced-cost tolerance 1e-9. Each round certifies its basis
from the original data (basic values within their segments, no profitable
direction); only when that fails does it build a tableau and iterate, so a
crash that already prices out costs no tableau and accumulated drift cannot
leak into results. A round that ends with no iteration ends the solve as a
numeric failure: the next round would take the same basis and fail the same
check. The first round works from the start basis B0 and its factorization
(B0^-1, B0^-1 b, B0^-1 A; see factor), which does not depend on g, so the
caller supplies the start: matching factors its crash once per mdp. Every
later round reads its basis B off the last tableau, whose B0 columns hold
C = B^-1 B0, so B^-1 = C B0^-1: its basic values are C B0^-1 (b - A xn)
plus one refinement step against the original (A, b), its duals
(c_B C) B0^-1 and its tableau C (B0^-1 A). That is matrix products alone:
LAPACK runs only in factor, once per start basis, so a solve's bytes do not
move with the BLAS thread count (a 128 x 128 inverse's did). The objective
returned is the certificate's dual bound b.y + sum_j g_j min(1, -z_j).
Never reports "optimal" without that certificate.

The tableau is kept by columns: TT is (n, m + 1), its row j column j of
B^-1 A followed by z_j, so the entering column is one contiguous row; the
basic values are a vector of their own. Each pivot's rank-1 update runs on
one row span, a row gather: the rows of the columns where the pivot row is
nonzero, from the entering column's first nonzero entry on, z included (on
the matching LPs about 42 of 256 columns by 83 of 128 rows). An entry
outside the span, or inside it where the entering column is 0, would have
an exact zero subtracted, and a step of 0 would subtract exact zeros from
the basic values; skipping either, or subtracting, changes at most the
sign of a zero, which no later value reads: the pivot path, basis and
solution are those of the dense update. The ratio test is one plain pass
over the rows: with sign the direction x_j moves, the ratio of a row is the
larger of its ratios to its segment's two ends, then rows whose entering
entry is at most 1e-9 in size get inf. A flip moves no z, so it refreshes
only its own reduced cost. The loop forms every entry with elementwise
numpy, no matrix product, so no pivot's bytes depend on the BLAS thread
count either. The segment ends of the basic variables are kept once, by
basis position, and the loop keeps its pricing and ratios in buffers it
allocates once, so an iteration gathers nothing by basis index."""

import numpy as np

TOL = 1e-9
STALL_LIMIT = 200
_PIVOT_MIN = 1e-9
_MAX_ROUNDS = 20


def factor(A, b, basis):
    """The start of a solve from the basis B = A[:, basis], read-only:
    (basis, B^-1, B^-1 b, B^-1 A), the first round's factorization, which
    depends on the LP and the basis but not on g. Raises LinAlgError when B
    is singular."""
    basis = np.array(basis)
    Binv = np.linalg.inv(A[:, basis])
    out = basis, Binv, Binv @ b, Binv @ A
    for arr in out:
        arr.flags.writeable = False
    return out


def simplex(A, b, g, start):
    """Returns (x, objective, status, iterations) with status in
    {"optimal", "numeric-failure"}; objective is the certificate's dual bound.
    start is factor(A, b, basis) for a basis that is feasible with every
    nonbasic x at 0."""
    m, n = A.shape
    g = np.asarray(g, dtype=np.float64)
    crash, B0inv, xb, B0invA = start
    basis = crash.copy()
    xn = np.zeros(n)  # nonbasic positions, 0 or g; 0 on the basis
    up = np.where(g > 0.0, 1.0, -1.0)
    down = np.full(n, -np.inf)
    up[basis] = -np.inf  # basic x never enter
    total_it = 0
    C = None  # B^-1 B0 once a round has pivoted; before that B = B0
    for _ in range(_MAX_ROUNDS):
        if C is not None:
            # B^-1 = C B0^-1; one refinement step from the original data.
            rhs = b - A @ xn
            xb = C @ (B0inv @ rhs)
            xb += C @ (B0inv @ (rhs - A[:, basis] @ xb))
        xb = np.where(np.abs(xb) < 1e-11, 0.0, xb)
        if C is None:
            # The segment of basis[i] is [lob[i], hib[i]], kept by basis
            # position.
            below = xb < g[basis]
            lob = np.where(below, 0.0, g[basis])
            hib = np.where(below, g[basis], np.inf)
        # Duals from the basic slopes: -1 on [0, g], +1 on [g, inf).
        cb = np.where(hib < np.inf, -1.0, 1.0)
        y = (cb if C is None else cb @ C) @ B0inv
        z = y @ A
        if (np.maximum(z + up, down - z).max() <= 10 * TOL
                and (xb - lob).min() >= -1e-9
                and (xb - hib).max() <= 1e-9):
            x = xn.copy()
            x[basis] = np.clip(xb, lob, hib)
            bound = float(b @ y + g @ np.minimum(1.0, -z))
            return x, bound, "optimal", total_it
        # The tableau by columns: row j of TT is column j of B^-1 A, then
        # z_j.
        TT = np.empty((n, m + 1))
        TT[:, :m] = (B0invA if C is None else C @ B0invA).T
        TT[:, m] = z
        claimed, it = _iterate(TT, xb, basis, g, xn, lob, hib, up, down,
                               50 * n - total_it)
        total_it += it
        if not claimed or it == 0:
            return None, np.inf, "numeric-failure", total_it
        C = TT[crash, :m].T  # the crash columns of B^-1 A, F-ordered
    return None, np.inf, "numeric-failure", total_it


@np.errstate(divide="ignore", invalid="ignore")  # the ratio test's /0
def _iterate(TT, xb, basis, g, xn, lob, hib, up, down, budget):
    """Pivot or flip until the tableau prices out or the budget runs dry,
    switching to Bland's rule once STALL_LIMIT iterations in a row have not
    improved the objective. Returns (claimed_optimal, iterations); TT, xb,
    basis, xn, the segments [lob[i], hib[i]] of the basic basis[i], up and
    down are updated in place. TT is (n, m + 1): TT[:, :m] holds the
    transpose of B^-1 A and TT[:, m] the row z = c_B B^-1 A; xb holds the
    basic values."""
    n, m = TT.shape[0], TT.shape[1] - 1
    z = TT[:, m]
    r, fall = np.empty(n), np.empty(n)
    lo, hi, ratios, moved = (np.empty(m) for _ in range(4))
    small = np.empty(m, dtype=bool)
    bland = False
    stall, stall_limit = 0, STALL_LIMIT
    obj = last_obj = 0.0
    np.add(z, up, out=r)
    np.subtract(down, z, out=fall)
    np.maximum(r, fall, out=r)
    for it in range(max(budget, 1)):
        if bland:
            js = (r > TOL).nonzero()[0]
            if js.size == 0:
                return True, it
            j = int(js[0])
        else:
            j = int(r.argmax())
        rj = r.item(j)
        if rj <= TOL:
            return True, it
        zj, gj, xj = z.item(j), g.item(j), xn.item(j)
        sign = 1.0 if zj + up.item(j) >= down.item(j) - zj else -1.0
        # x_j moves along [g, inf) with slope +1 if it rises from g, else
        # along [0, g] with slope -1, whose far end it reaches after g.
        cj, reach = (1.0, np.inf) if sign > 0 and xj == gj else (-1.0, gj)
        # Moving x_j by sign * theta moves the basic values by -theta * alpha,
        # alpha = sign * col. A basic x stops at lob if alpha > 0 and at hib
        # if alpha < 0: at the larger of (xb - lob) / alpha and
        # (xb - hib) / alpha, as lob < hib, each formed with the sign folded
        # into the difference.
        col = TT[j, :m]
        if sign > 0:
            np.subtract(xb, lob, out=lo)
            np.subtract(xb, hib, out=hi)
        else:
            np.subtract(lob, xb, out=lo)
            np.subtract(hib, xb, out=hi)
        np.divide(lo, col, out=lo)
        np.divide(hi, col, out=hi)
        np.maximum(lo, hi, out=ratios)
        np.less_equal(np.abs(col, out=moved), _PIVOT_MIN, out=small)
        ratios[small] = np.inf
        theta = ratios.item(ratios.argmin())
        flip = reach <= theta
        if flip:
            if reach == np.inf:
                return False, it  # unbounded direction: only reachable via drift
            step = reach
        else:
            cand = (ratios <= theta + 1e-12).nonzero()[0]
            if cand.size == 1:
                p = int(cand[0])
            elif bland:
                p = int(cand[basis[cand].argmin()])
            else:
                p = int(cand[np.abs(col[cand]).argmax()])
            step = ratios.item(p)
        if step:  # a degenerate step would subtract exact zeros
            np.multiply(col, step, out=moved)
            (np.subtract if sign > 0 else np.add)(xb, moved, out=xb)
        if flip:
            xn[j] = x = gj - xj
            up[j], down[j] = u, d = _offsets(x, gj)
            r[j] = max(zj + u, d - zj)  # z did not move
        else:
            leave, a = int(basis[p]), col.item(p)
            xb[p] = xj + sign * step
            xn[leave] = x = lob.item(p) if sign * a > 0 else hib.item(p)
            up[leave], down[leave] = _offsets(x, g.item(leave))
            xn[j] = 0.0
            lob[p], hib[p] = (gj, np.inf) if cj > 0 else (0.0, gj)
            up[j] = down[j] = -np.inf
            # The rank-1 update on its row span, z included: z moves by
            # (zj - cj) times the pivot row. einsum's outer product is
            # np.multiply.outer's, one rounded product per entry, with
            # less overhead per row.
            cols = TT[:, p].nonzero()[0]
            r0 = int(col.nonzero()[0][0])
            span = TT[cols, r0:]
            pc = span[:, p - r0] / a  # the pivot row over the pivot
            row = TT[j, r0:].copy()
            row[-1] = zj - cj
            np.subtract(span, np.einsum("i,j->ij", pc, row), out=span)
            span[:, p - r0] = pc
            TT[cols, r0:] = span
            basis[p] = j
            np.add(z, up, out=r)
            np.subtract(down, z, out=fall)
            np.maximum(r, fall, out=r)
        obj -= step * rj
        if obj > last_obj - 1e-12:
            stall += 1
            if stall >= stall_limit:
                bland = True
        else:
            stall = 0
            last_obj = obj
    return False, max(budget, 1)


def _offsets(x, g):
    """Pricing offsets (up, down) of a nonbasic x at 0 or at g: rising from
    0 below g gains z + 1; from g it gains z - 1 and falling gains -1 - z,
    unless g = 0, where x cannot fall."""
    if x < g:
        return 1.0, -np.inf
    return -1.0, -1.0 if g > 0 else -np.inf
