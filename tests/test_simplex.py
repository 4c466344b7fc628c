import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog

from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb
from il_lab.matching import build_match_lp, crash_basis
from il_lab.mdp import exact_occupancy
from il_lab.rng import mix64
from il_lab.simplex import _PIVOT_MIN, TOL, _iterate, simplex


def standard_form(A_ub, b_ub, c):
    """min c.x s.t. A_ub x <= b_ub, x >= 0 as equalities with slacks; the
    slack columns are a feasible basis whenever b_ub >= 0."""
    m, n = A_ub.shape
    A = np.hstack([A_ub, np.eye(m)])
    cc = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)
    return A, b_ub.astype(np.float64), cc, basis


def unit(seed, *shape):
    flat = np.array([mix64(seed, i) for i in range(int(np.prod(shape)))])
    return (flat / 2.0**64).reshape(shape)


def test_known_tiny_lp():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, -2.0, 0.0])
    x, obj, status, _ = simplex(A, b, c, [2])
    assert status == "optimal"
    assert obj == pytest.approx(-2.0, abs=1e-12)
    assert np.allclose(x, [0.0, 1.0, 0.0], atol=1e-12)


def test_degenerate_rhs():
    # A zero on the right-hand side forces degenerate pivots.
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([1.0, 0.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    x, obj, status, _ = simplex(A, b, c, [2, 3])
    assert status == "optimal"
    assert obj == pytest.approx(-1.0, abs=1e-9)


def test_equality_feasibility_maintained():
    A_ub = unit(71, 6, 9)
    b_ub = unit(72, 6) + 1.0
    c = unit(73, 9) - 0.5
    A, b, cc, basis = standard_form(A_ub, b_ub, c)
    x, obj, status, _ = simplex(A, b, cc, basis)
    assert status == "optimal"
    assert x.min() >= -1e-9
    assert np.abs(A @ x - b).max() <= 1e-8


def test_matches_reference_solver_on_random_lps():
    failures = []
    for i in range(60):
        m = 2 + mix64(81, i, 0) % 5
        n = 2 + mix64(81, i, 1) % 8
        A_ub = unit(mix64(81, i, 2), m, n) - 0.2
        b_ub = unit(mix64(81, i, 3), m) + 0.5
        c = unit(mix64(81, i, 4), n) - 0.6
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None),
                      method="highs")
        A, b, cc, basis = standard_form(A_ub, b_ub, c)
        x, obj, status, _ = simplex(A, b, cc, basis)
        if not ref.success:
            # Reference says unbounded/infeasible; ours must not claim a
            # better-than-possible optimum, and unbounded shows up as failure.
            if status == "optimal":
                failures.append((i, "claimed optimal where reference failed"))
            continue
        if status != "optimal":
            failures.append((i, f"status {status}"))
            continue
        if abs(obj - ref.fun) > 1e-7 * max(1.0, abs(ref.fun)):
            failures.append((i, f"obj {obj} vs {ref.fun}"))
    assert not failures, failures


def test_iteration_cap_reports_failure_not_lies():
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    x, obj, status, _ = simplex(A, b, c, [1], stall_limit=1)
    assert status == "optimal"
    assert obj == pytest.approx(-1.0, abs=1e-12)


def test_bounded_matches_reference_solver_on_random_lps():
    # Per variable: a finite bound, a zero bound (fixed at 0) or none; the
    # slacks stay unbounded, so x = 0 with the slack basis is feasible.
    failures = []
    at_bound = 0
    for i in range(80):
        m = 2 + mix64(82, i, 0) % 5
        n = 2 + mix64(82, i, 1) % 8
        A_ub = unit(mix64(82, i, 2), m, n) - 0.2
        b_ub = unit(mix64(82, i, 3), m) + 0.5
        c = unit(mix64(82, i, 4), n) - 0.6
        kind = np.array([mix64(82, i, 5, k) % 4 for k in range(n)])
        ub = np.where(kind == 0, 0.0, np.where(kind == 3, np.inf,
                                               unit(mix64(82, i, 6), n) * 2))
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub,
                      bounds=[(0, None if u == np.inf else u) for u in ub],
                      method="highs")
        A, b, cc, basis = standard_form(A_ub, b_ub, c)
        upper = np.r_[ub, np.full(m, np.inf)]
        x, obj, status, it = simplex(A, b, cc, basis, upper)
        if not ref.success:
            if status == "optimal":
                failures.append((i, "claimed optimal where reference failed"))
            continue
        if status != "optimal":
            failures.append((i, f"status {status}"))
            continue
        if abs(obj - ref.fun) > 1e-7 * max(1.0, abs(ref.fun)):
            failures.append((i, f"obj {obj} vs {ref.fun}"))
        if x.min() < 0 or (x - upper).max() > 0:
            failures.append((i, "bounds violated"))
        if np.abs(A @ x - b).max() > 1e-8:
            failures.append((i, "equalities violated"))
        at_bound += np.any((x[:n] == ub) & (ub > 0))
    assert not failures, failures
    assert at_bound > 0


def test_upper_none_is_the_unbounded_problem():
    A, b, c, basis = standard_form(unit(77, 5, 7), unit(78, 5) + 1.0,
                                   unit(79, 7) - 0.5)
    free = simplex(A, b, c, basis)
    inf = simplex(A, b, c, basis, np.full(A.shape[1], np.inf))
    assert free[2] == inf[2] == "optimal"
    assert np.array_equal(free[0], inf[0]) and free[3] == inf[3]


def dense_iterate(T, basis, dirn, upper, m, n, tol, stall_limit, budget):
    """Reference bounded _iterate: a per-row ratio test and the full rank-1
    update on every pivot."""
    bland = False
    stall = 0
    last_obj = T[m, n]
    for it in range(max(budget, 1)):
        r = T[m, :n] * dirn
        eligible = [k for k in range(n) if r[k] > tol]
        if not eligible:
            return True, it
        j = eligible[0] if bland else int(np.argmax(r))
        sign = dirn[j]
        theta, rows = np.inf, []
        for i in range(m):
            a = sign * T[i, j]
            if a > _PIVOT_MIN:
                ratio = T[i, n] / a
            elif a < -_PIVOT_MIN:
                ratio = (T[i, n] - upper[basis[i]]) / a
            else:
                continue
            rows.append((ratio, i, a))
            theta = min(theta, ratio)
        if upper[j] <= theta:
            if upper[j] == np.inf:
                return False, it
            T[:, n] -= (sign * upper[j]) * T[:, j]
            dirn[j] = -sign
        else:
            cand = [(i, a) for ratio, i, a in rows if ratio <= theta + 1e-12]
            if bland:
                p, a = min(cand, key=lambda ia: basis[ia[0]])
            else:
                p, a = max(cand, key=lambda ia: abs(ia[1]))
            step = T[p, n] / a if a > 0 else (T[p, n] - upper[basis[p]]) / a
            T[:, n] -= (sign * step) * T[:, j]
            T[p, n] = step if sign > 0 else upper[j] - step
            leave = basis[p]
            dirn[leave] = 0.0 if upper[leave] == 0.0 else np.sign(a)
            dirn[j] = 1.0
            piv = T[p, :n] / T[p, j]
            T[:, :n] -= np.outer(T[:, j], piv)
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


class PivotLog(np.ndarray):
    """Basis array that records every (row, entering column) assignment."""

    def __setitem__(self, key, value):
        self.log.append((int(key), int(value)))
        super().__setitem__(key, value)


def tableau(A, b, c, basis):
    m, n = A.shape
    B = A[:, basis]
    T = np.empty((m + 1, n + 1))
    T[:m, :n] = np.linalg.solve(B, A)
    T[:m, n] = np.linalg.solve(B, b)
    T[:m, n][np.abs(T[:m, n]) < 1e-11] = 0.0
    T[m, :n] = c[basis] @ T[:m, :n] - c
    T[m, n] = c[basis] @ T[:m, n]
    return T


def pivot_path(iterate, A, b, c, basis, upper, stall_limit):
    m, n = A.shape
    T = tableau(A, b, c, basis)
    log = np.array(basis).view(PivotLog)
    log.log = []
    dirn = (upper > 0.0).astype(np.float64)
    claimed, it = iterate(T, log, dirn, upper, m, n, TOL, stall_limit, 50 * n)
    return claimed, it, log.log, T, dirn


def test_sparse_update_follows_the_dense_pivot_path():
    mm_mdp, mm_expert = make_mm_lb(8, 1024)
    bc_mdp, bc_expert = make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)
    lps = []
    for mdp, expert in ((mm_mdp, mm_expert), (bc_mdp, bc_expert)):
        d = exact_occupancy(mdp, expert).d
        tilt = np.array([mix64(98, i) for i in range(d.size)]) / 2.0**64
        g = 0.5 * d + 0.5 * (tilt / tilt.sum()).reshape(d.shape) * mdp.horizon
        Amat, b, c, upper, nd = build_match_lp(mdp, g)
        lps.append((Amat, b, c, crash_basis(mdp, g, nd), upper))
    A, b, c, basis = standard_form(unit(74, 6, 9), unit(75, 6) + 1.0,
                                   unit(76, 9) - 0.5)
    lps.append((A, b, c, basis, np.full(A.shape[1], np.inf)))
    # A zero right-hand side and a one-pivot stall limit force Bland's rule.
    lps.append((np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]]),
                np.array([1.0, 0.0]), np.array([-1.0, -1.0, 0.0, 0.0]),
                [2, 3], np.full(4, np.inf)))
    # Degenerate rows and bounds, some of them zero: with a one-pivot stall
    # limit Bland's rule takes over and still flips a bound.
    A, b, c, basis = standard_form(
        unit(mix64(118, 0), 6, 9) - 0.3,
        np.where(unit(mix64(118, 1), 6) < 0.5, 0.0, 1.0),
        unit(mix64(118, 2), 9) - 0.6)
    upper = np.r_[np.where(unit(mix64(118, 3), 9) < 0.3, 0.0, 0.5),
                  np.full(6, np.inf)]
    lps.append((A, b, c, basis, upper))
    paths = {}
    for k, (A, b, c, basis, upper) in enumerate(lps):
        for stall_limit in (200, 1):
            sparse = pivot_path(_iterate, A, b, c, basis, upper, stall_limit)
            dense = pivot_path(dense_iterate, A, b, c, basis, upper,
                               stall_limit)
            assert sparse[0] and dense[0], k
            assert sparse[1] == dense[1], (k, stall_limit)
            assert sparse[2] == dense[2], (k, stall_limit)
            assert len(sparse[2]) > 0
            # Equal up to the sign of zeros, so bit for bit otherwise.
            assert np.array_equal(sparse[3], dense[3]), (k, stall_limit)
            assert np.array_equal(sparse[4], dense[4]), (k, stall_limit)
            paths[k, stall_limit] = sparse[1], sparse[2]
    # Iterations that changed no basis column were bound flips.
    for k in (0, 1):
        assert paths[k, 200][0] > len(paths[k, 200][1]), k
    assert paths[4, 1][0] > len(paths[4, 1][1])
    assert paths[4, 1] != paths[4, 200]  # Bland's rule took over
