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
check. The first round works from the start basis B0's factorization
(B0^-1, B0^-1 b, B0^-1 A; see factor), which does not depend on g, so a
caller that solves many targets from one basis may supply it: matching
factors its crash once per mdp. Every later round reads its basis B off the
last tableau, whose B0 columns hold C = B^-1 B0, so B^-1 = C B0^-1: its
basic values are C B0^-1 (b - A xn) plus one refinement step against the
original (A, b), its duals (c_B C) B0^-1 and its tableau C (B0^-1 A). That
is matrix products alone: LAPACK runs only in factor, once per start basis,
so a solve's bytes do not move with the BLAS thread count (a 128 x 128
inverse's did). The objective returned is the certificate's dual bound
b.y + sum_j g_j min(1, -z_j). Never reports "optimal" without that
certificate.

Each pivot's rank-1 update touches only the tableau entries whose pivot-row
and pivot-column factors are both nonzero (a few percent of the pivot row on
the matching LPs). Every other entry would have had an exact zero subtracted,
so skipping it changes at most the sign of a zero: the pivot path, basis and
solution are those of the dense update. The segment ends of the basic
variables are kept once, by basis position, and the loop keeps its pricing
and ratios in buffers it allocates once, so an iteration gathers nothing by
basis index."""

import numpy as np

TOL = 1e-9
STALL_LIMIT = 200
_PIVOT_MIN = 1e-9
_MAX_ROUNDS = 20


def factor(A, b, basis):
    """(B^-1, B^-1 b, B^-1 A) for the basis B = A[:, basis], read-only: the
    first round's factorization, which depends on the LP and the basis but
    not on g. Raises LinAlgError when B is singular."""
    Binv = np.linalg.inv(A[:, basis])
    out = Binv, Binv @ b, Binv @ A
    for arr in out:
        arr.flags.writeable = False
    return out


def simplex(A, b, g, basis, first=None):
    """Returns (x, objective, status, iterations) with status in
    {"optimal", "numeric-failure"}; objective is the certificate's dual bound.
    basis must index a basis that is feasible with every nonbasic x at 0.
    first, if given, is factor(A, b, basis); without it the solve factors
    the basis itself."""
    m, n = A.shape
    g = np.asarray(g, dtype=np.float64)
    basis = np.array(basis)
    crash = basis.copy()
    if first is None:
        try:
            first = factor(A, b, basis)
        except np.linalg.LinAlgError:
            return None, np.inf, "numeric-failure", 0
    B0inv, xb, B0invA = first
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
        T = np.zeros((m + 1, n + 1))
        T[:m, :n] = B0invA if C is None else C @ B0invA
        T[:m, n] = xb
        T[m, :n] = z
        claimed, it = _iterate(T, basis, g, xn, lob, hib, up, down,
                               50 * n - total_it)
        total_it += it
        if not claimed or it == 0:
            return None, np.inf, "numeric-failure", total_it
        C = T[:m, crash]  # the crash columns of B^-1 A
    return None, np.inf, "numeric-failure", total_it


def _iterate(T, basis, g, xn, lob, hib, up, down, budget):
    """Pivot or flip until the tableau prices out or the budget runs dry,
    switching to Bland's rule once STALL_LIMIT iterations in a row have not
    improved the objective. Returns (claimed_optimal, iterations); basis,
    xn, the segments [lob[i], hib[i]] of the basic basis[i], up and down
    are updated in place. T must be C-contiguous; T[:m, :n] holds B^-1 A,
    T[:m, n] the basic values and T[m, :n] the row z = c_B B^-1 A."""
    if not T.flags.c_contiguous:
        raise ValueError("tableau must be C-contiguous")
    m, n = T.shape[0] - 1, T.shape[1] - 1
    flat, z, xb = T.reshape(-1), T[m, :n], T[:m, n]
    r, fall = np.empty(n), np.empty(n)
    neg, num, ratios = np.empty(m), np.empty(m), np.empty(m)
    bland = False
    stall, stall_limit = 0, STALL_LIMIT
    obj = last_obj = 0.0
    for it in range(max(budget, 1)):
        np.add(z, up, out=r)
        np.subtract(down, z, out=fall)
        np.maximum(r, fall, out=r)
        if bland:
            js = (r > TOL).nonzero()[0]
            if js.size == 0:
                return True, it
            j = int(js[0])
        else:
            j = int(r.argmax())
            if r.item(j) <= TOL:
                return True, it
        zj, gj, xj, rj = z.item(j), g.item(j), xn.item(j), r.item(j)
        sign = 1.0 if zj + up.item(j) >= down.item(j) - zj else -1.0
        # x_j moves along [g, inf) with slope +1 if it rises from g, else
        # along [0, g] with slope -1, whose far end it reaches after g.
        cj, reach = (1.0, np.inf) if sign > 0 and xj == gj else (-1.0, gj)
        # Moving x_j by sign * theta moves the basic values by -theta * alpha.
        col = T[:m, j]
        alpha = col if sign > 0 else np.negative(col, out=neg)
        np.subtract(xb, np.where(alpha > 0.0, lob, hib), out=num)
        ratios.fill(np.inf)
        np.divide(num, alpha, out=ratios, where=np.abs(alpha) > _PIVOT_MIN)
        theta = ratios.min()
        if reach <= theta:
            if reach == np.inf:
                return False, it  # unbounded direction: only reachable via drift
            step = reach
            xb -= step * alpha
            xn[j] = x = gj - xj
            up[j], down[j] = _offsets(x, gj)
        else:
            cand = (ratios <= theta + 1e-12).nonzero()[0]
            if cand.size == 1:
                p = int(cand[0])
            elif bland:
                p = int(cand[np.argmin(basis[cand])])
            else:
                p = int(cand[np.argmax(np.abs(alpha[cand]))])
            step, leave = ratios.item(p), int(basis[p])
            xb -= step * alpha
            xb[p] = xj + sign * step
            xn[leave] = x = lob.item(p) if alpha.item(p) > 0 else hib.item(p)
            up[leave], down[leave] = _offsets(x, g.item(leave))
            xn[j] = 0.0
            seg = (gj, np.inf) if cj > 0 else (0.0, gj)
            lob[p], hib[p] = seg
            up[j] = down[j] = -np.inf
            piv = T[p, :n] / T[p, j]
            rows, cols = col.nonzero()[0], piv.nonzero()[0]
            pc = piv[cols]
            # The entries of np.ix_(rows, cols), addressed more cheaply.
            flat[rows[:, None] * (n + 1) + cols] -= col[rows][:, None] * pc
            z[cols] -= (zj - cj) * pc
            T[p, :n] = piv
            basis[p] = j
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
