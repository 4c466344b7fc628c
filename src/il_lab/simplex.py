"""Dense bounded-variable primal simplex for min c.x s.t. Ax = b,
0 <= x <= upper (upper=None: no upper bounds), warm-started from a
caller-supplied basis that is feasible with every nonbasic variable at 0.
Dantzig pricing with a Bland fallback after a degenerate stall; iteration cap
50 * #variables; reduced-cost tolerance 1e-9. At every claimed optimum the
basis is refactorized from the original data and certified (fresh reduced
costs and basic solution, within the bounds); iteration resumes if the
certificate fails, so accumulated tableau drift cannot leak into results.
Never reports "optimal" without that certificate.

Upper bounds use Dantzig's upper-bounding technique: a nonbasic variable sits
at 0 or at its bound, and pricing reads its reduced cost with the sign of the
direction it can move. The ratio test stops at a basic variable reaching 0 or
its bound, or at the entering variable's own bound; in the last case the
variable flips bounds with no basis change and no tableau update (only the
basic values and the objective move). A flip counts as an iteration.
Variables with a zero bound are fixed and never enter.

Each pivot's rank-1 update touches only the tableau entries whose pivot-row
and pivot-column factors are both nonzero (a few percent of the pivot row on
the matching LPs). Every other entry would have had an exact zero subtracted,
so skipping it changes at most the sign of a zero: the pivot path, basis and
solution are those of the dense update."""

import numpy as np

TOL = 1e-9
STALL_LIMIT = 200
_PIVOT_MIN = 1e-9
_MAX_ROUNDS = 20


def simplex(A, b, c, basis, upper=None, tol=TOL, stall_limit=STALL_LIMIT):
    """Returns (x, objective, status, iterations) with status in
    {"optimal", "numeric-failure"}. basis must index a basis that is feasible
    with every nonbasic variable at 0."""
    m, n = A.shape
    cap = 50 * n
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
    basis = np.array(basis)
    # +1 at the lower bound (and basic), -1 at the upper bound, 0 fixed.
    dirn = (upper > 0.0).astype(np.float64)
    total_it = 0
    for _ in range(_MAX_ROUNDS):
        at_upper = dirn < 0.0
        B = A[:, basis]
        rhs = b - A[:, at_upper] @ upper[at_upper]
        T = np.empty((m + 1, n + 1))
        try:
            T[:m, :n] = np.linalg.solve(B, A)
            T[:m, n] = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError:
            return None, np.inf, "numeric-failure", total_it
        T[:m, n][np.abs(T[:m, n]) < 1e-11] = 0.0
        cb = c[basis]
        T[m, :n] = cb @ T[:m, :n] - c
        T[m, n] = cb @ T[:m, n] + c[at_upper] @ upper[at_upper]
        claimed, it = _iterate(T, basis, dirn, upper, m, n, tol, stall_limit,
                               cap - total_it)
        total_it += it
        if not claimed:
            return None, np.inf, "numeric-failure", total_it
        at_upper = dirn < 0.0
        B = A[:, basis]
        rhs = b - A[:, at_upper] @ upper[at_upper]
        try:
            xb = np.linalg.solve(B, rhs)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError:
            return None, np.inf, "numeric-failure", total_it
        red = dirn * (y @ A - c)
        if (red.max() <= 10 * tol and xb.min() >= -1e-9
                and (xb - upper[basis]).max() <= 1e-9):
            x = np.where(at_upper, upper, 0.0)
            x[basis] = np.clip(xb, 0.0, upper[basis])
            return x, float(c @ x), "optimal", total_it
    return None, np.inf, "numeric-failure", total_it


def _iterate(T, basis, dirn, upper, m, n, tol, stall_limit, budget):
    """Pivot or flip until the tableau prices out or the budget runs dry.
    Returns (claimed_optimal, iterations); basis and dirn are updated in
    place. T must be C-contiguous; T[:m, n] holds the basic values and
    T[m, n] the objective."""
    if not T.flags.c_contiguous:
        raise ValueError("tableau must be C-contiguous")
    flat = T.reshape(-1)
    bland = False
    stall = 0
    last_obj = T[m, n]
    for it in range(max(budget, 1)):
        r = T[m, :n] * dirn
        if bland:
            js = np.flatnonzero(r > tol)
            if js.size == 0:
                return True, it
            j = js[0]
        else:
            j = int(np.argmax(r))
            if r[j] <= tol:
                return True, it
        # Moving x_j by sign * theta moves the basic values by -theta * alpha:
        # a basic value falls to 0 where alpha > 0, rises to its bound where
        # alpha < 0.
        sign = dirn[j]
        alpha = sign * T[:m, j]
        xb = T[:m, n]
        ratios = np.full(m, np.inf)
        np.divide(xb, alpha, out=ratios, where=alpha > _PIVOT_MIN)
        np.divide(xb - upper[basis], alpha, out=ratios,
                  where=alpha < -_PIVOT_MIN)
        theta = ratios.min()
        if upper[j] <= theta:
            if upper[j] == np.inf:
                return False, it  # unbounded direction: only reachable via drift
            T[:, n] -= (sign * upper[j]) * T[:, j]
            dirn[j] = -sign
        else:
            cand = np.flatnonzero(ratios <= theta + 1e-12)
            if bland:
                p = cand[np.argmin(basis[cand])]
            else:
                p = cand[np.argmax(np.abs(alpha[cand]))]
            step, leave = ratios[p], basis[p]
            T[:, n] -= (sign * step) * T[:, j]
            T[p, n] = step if sign > 0 else upper[j] - step
            dirn[leave] = 0.0 if upper[leave] == 0.0 else (
                -1.0 if alpha[p] < 0 else 1.0)
            dirn[j] = 1.0
            piv = T[p, :n] / T[p, j]
            rows, cols = np.flatnonzero(T[:, j]), np.flatnonzero(piv)
            # The entries of np.ix_(rows, cols), addressed more cheaply.
            flat[rows[:, None] * (n + 1) + cols] -= np.outer(T[rows, j],
                                                            piv[cols])
            T[p, :n] = piv
            basis[p] = j
        obj = T[m, n]
        if obj > last_obj - 1e-12:
            stall += 1
            if stall >= stall_limit:
                bland = True
        else:
            stall = 0
            last_obj = obj
    return False, max(budget, 1)
