"""Dense primal simplex for min c.x s.t. Ax = b, x >= 0, warm-started from a
caller-supplied feasible basis. Dantzig pricing with a Bland fallback after a
degenerate stall; iteration cap 50 * #variables; reduced-cost tolerance 1e-9.
At every claimed optimum the basis is refactorized from the original data and
certified (fresh reduced costs and basic solution); iteration resumes if the
certificate fails, so accumulated tableau drift cannot leak into results.
Never reports "optimal" without that certificate.

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


def simplex(A, b, c, basis, tol=TOL, stall_limit=STALL_LIMIT):
    """Returns (x, objective, status, iterations) with status in
    {"optimal", "numeric-failure"}. basis must index a feasible basis."""
    m, n = A.shape
    cap = 50 * n
    basis = np.array(basis)
    total_it = 0
    for _ in range(_MAX_ROUNDS):
        B = A[:, basis]
        T = np.empty((m + 1, n + 1))
        try:
            T[:m, :n] = np.linalg.solve(B, A)
            T[:m, n] = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            return None, np.inf, "numeric-failure", total_it
        T[:m, n][np.abs(T[:m, n]) < 1e-11] = 0.0
        cb = c[basis]
        T[m, :n] = cb @ T[:m, :n] - c
        T[m, n] = cb @ T[:m, n]
        claimed, it = _iterate(T, basis, m, n, tol, stall_limit, cap - total_it)
        total_it += it
        if not claimed:
            return None, np.inf, "numeric-failure", total_it
        B = A[:, basis]
        try:
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError:
            return None, np.inf, "numeric-failure", total_it
        red = y @ A - c
        if red.max() <= 10 * tol and xb.min() >= -1e-9:
            x = np.zeros(n)
            x[basis] = np.maximum(xb, 0.0)
            return x, float(c @ x), "optimal", total_it
    return None, np.inf, "numeric-failure", total_it


def _iterate(T, basis, m, n, tol, stall_limit, budget):
    """Pivot until the tableau prices out or the budget runs dry. Returns
    (claimed_optimal, iterations); basis is updated in place."""
    bland = False
    stall = 0
    last_obj = T[m, n]
    for it in range(max(budget, 1)):
        r = T[m, :n]
        if bland:
            js = np.flatnonzero(r > tol)
            if js.size == 0:
                return True, it
            j = js[0]
        else:
            j = int(np.argmax(r))
            if r[j] <= tol:
                return True, it
        col = T[:m, j]
        pos = np.flatnonzero(col > _PIVOT_MIN)
        if pos.size == 0:
            return False, it  # unbounded direction: only reachable via drift
        ratios = T[pos, n] / col[pos]
        theta = ratios.min()
        cand = pos[ratios <= theta + 1e-12]
        if bland:
            p = cand[np.argmin(basis[cand])]
        else:
            p = cand[np.argmax(col[cand])]
        piv = T[p, :] / T[p, j]
        rows, cols = np.flatnonzero(T[:, j]), np.flatnonzero(piv)
        T[np.ix_(rows, cols)] -= np.outer(T[rows, j], piv[cols])
        T[p, :] = piv
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
