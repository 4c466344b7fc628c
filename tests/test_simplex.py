import hashlib

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog

from il_lab.harness import run_cell
from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb
from il_lab.matching import CrashLp, MatchTarget, build_match_lp, \
    crash_basis, crash_factor, solve_occupancy_match
from il_lab.mdp import deterministic_policy, exact_occupancy
from il_lab.rng import mix64
import il_lab.simplex as simplex_module
from il_lab.simplex import _MAX_ROUNDS, _PIVOT_MIN, TOL, _iterate, factor, \
    simplex


def slack_form(A_ub, b_ub):
    """A_ub x <= b_ub, x >= 0 as equalities with slacks; the slack columns
    are a feasible basis whenever b_ub >= 0."""
    m, n = A_ub.shape
    return np.hstack([A_ub, np.eye(m)]), b_ub.astype(np.float64), \
        np.arange(n, n + m)


def unit(seed, *shape):
    flat = np.array([mix64(seed, i) for i in range(int(np.prod(shape)))])
    return (flat / 2.0**64).reshape(shape)


def solve(A, b, g, basis):
    """simplex from the start basis, factored here."""
    return simplex(A, b, g, factor(A, b, basis))


def l1_reference(A, b, g, tol=None):
    """min sum e s.t. -e <= x - g <= e, Ax = b, x >= 0 by scipy HiGHS,
    written from the definition; tol, if given, is HiGHS's primal and dual
    feasibility tolerance."""
    m, n = A.shape
    eye = np.eye(n)
    res = linprog(np.r_[np.zeros(n), np.ones(n)],
                  A_ub=np.block([[eye, -eye], [-eye, -eye]]),
                  b_ub=np.r_[g, -g], A_eq=np.hstack([A, np.zeros((m, n))]),
                  b_eq=b, bounds=(0, None), method="highs",
                  options=None if tol is None else {
                      "primal_feasibility_tolerance": tol,
                      "dual_feasibility_tolerance": tol})
    assert res.success, res.message
    return res.fun


def check_solution(A, b, g, out):
    x, obj, status, _ = out
    assert status == "optimal"
    assert x.min() >= 0.0
    assert np.abs(A @ x - b).max() <= 1e-8
    # The returned objective is the dual bound; the point attains it.
    assert abs(np.abs(x - g).sum() - obj) <= 1e-9
    return obj


def test_known_tiny_lp():
    # The three parts must sum to 1 but the target sums to 1.3: the cheapest
    # cut is 0.3, taken from the first two parts; the third stays at its g.
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    g = np.array([0.7, 0.6, 0.0])
    out = solve(A, b, g, [2])
    assert check_solution(A, b, g, out) == pytest.approx(0.3, abs=1e-12)
    assert out[0][2] == 0.0


def test_degenerate_rhs():
    # A zero on the right-hand side forces degenerate pivots.
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([1.0, 0.0])
    g = np.array([0.8, 0.8, 0.0, 0.0])
    obj = check_solution(A, b, g, solve(A, b, g, [2, 3]))
    assert obj == pytest.approx(0.6, abs=1e-12)
    assert obj == pytest.approx(l1_reference(A, b, g), abs=1e-9)


def test_equality_feasibility_maintained():
    A, b, basis = slack_form(unit(71, 6, 9), unit(72, 6) + 1.0)
    g = unit(73, 15) * 2.0
    check_solution(A, b, g, solve(A, b, g, basis))


def test_matches_reference_solver_on_random_lps():
    # Slack bases; a quarter of the targets are 0 and a third of the rows
    # have a zero right-hand side.
    failures = []
    for i in range(80):
        m = 2 + mix64(81, i, 0) % 5
        n = 2 + mix64(81, i, 1) % 8
        b_ub = unit(mix64(81, i, 3), m) + 0.5
        b_ub[unit(mix64(81, i, 5), m) < 1.0 / 3.0] = 0.0
        A, b, basis = slack_form(unit(mix64(81, i, 2), m, n) - 0.2, b_ub)
        g = unit(mix64(81, i, 4), n + m) * 2.0
        g[unit(mix64(81, i, 6), n + m) < 0.25] = 0.0
        ref = l1_reference(A, b, g)
        x, obj, status, _ = solve(A, b, g, basis)
        if status != "optimal":
            failures.append((i, f"status {status}"))
        elif abs(obj - ref) > 1e-7 * max(1.0, ref):
            failures.append((i, f"obj {obj} vs {ref}"))
        elif (x.min() < 0 or np.abs(A @ x - b).max() > 1e-8
              or abs(np.abs(x - g).sum() - obj) > 1e-9):
            failures.append((i, "solution"))
    assert not failures, failures


def test_stall_limit_one_still_reaches_the_optimum(monkeypatch):
    # A stall limit of 1 sends every pivot down the Bland path.
    monkeypatch.setattr(simplex_module, "STALL_LIMIT", 1)
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    g = np.array([1.0, 0.0])
    x, obj, status, _ = solve(A, b, g, [1])
    assert status == "optimal"
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(x, [1.0, 0.0])


def test_crash_that_prices_out_takes_no_iterations():
    # Target: 1.5 times the always-action-0 occupancy d0. The action-0 crash
    # undershoots every action-0 cell and sits at d0, the answer; it
    # certifies before any tableau is built.
    for mdp in (make_mm_lb(8, 1024)[0],
                make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)[0]):
        H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
        pi0 = deterministic_policy(np.zeros((H, S), dtype=np.int64), A)
        d0 = exact_occupancy(mdp, pi0).d.ravel()
        Amat, b = build_match_lp(mdp)
        x, obj, status, it = solve(Amat, b, 1.5 * d0, crash_basis(mdp))
        assert (status, it) == ("optimal", 0)
        assert obj == pytest.approx(0.5 * H, abs=1e-12)
        assert np.abs(x - d0).max() <= 1e-10


def dense_iterate(T, basis, g, xn, lo, hi, up, down, budget, stall_limit,
                  events):
    """Reference breakpoint _iterate: per-variable pricing, a per-row ratio
    test and the full rank-1 update on every pivot. Takes its stall limit as
    an argument where _iterate reads STALL_LIMIT. Appends one (kind, bland)
    event per iteration."""
    m, n = T.shape[0] - 1, T.shape[1] - 1
    bland = False
    stall = 0
    obj = last_obj = 0.0
    for it in range(max(budget, 1)):
        z = T[m, :n]
        r = np.array([max(z[k] + up[k], down[k] - z[k]) for k in range(n)])
        eligible = [k for k in range(n) if r[k] > TOL]
        if not eligible:
            return True, it
        j = eligible[0] if bland else int(np.argmax(r))
        rising = z[j] + up[j] >= down[j] - z[j]
        sign = 1.0 if rising else -1.0
        if rising and xn[j] == g[j]:
            cj, reach = 1.0, np.inf
        else:
            cj, reach = -1.0, g[j]
        theta, rows = np.inf, []
        for i in range(m):
            a = sign * T[i, j]
            if a > _PIVOT_MIN:
                ratio = (T[i, n] - lo[basis[i]]) / a
            elif a < -_PIVOT_MIN:
                ratio = (T[i, n] - hi[basis[i]]) / a
            else:
                continue
            rows.append((ratio, i, a))
            theta = min(theta, ratio)
        if reach <= theta:
            if reach == np.inf:
                return False, it
            step = reach
            T[:m, n] -= (sign * step) * T[:m, j]
            xn[j] = g[j] if xn[j] == 0.0 else 0.0
            if xn[j] < g[j]:
                up[j], down[j] = 1.0, -np.inf
            else:
                up[j], down[j] = -1.0, -1.0
            events.append(("flip", bland))
        else:
            cand = [(i, a) for ratio, i, a in rows if ratio <= theta + 1e-12]
            if bland:
                p, a = min(cand, key=lambda ia: basis[ia[0]])
            else:
                p, a = max(cand, key=lambda ia: abs(ia[1]))
            leave = basis[p]
            step = (T[p, n] - (lo[leave] if a > 0 else hi[leave])) / a
            T[:m, n] -= (sign * step) * T[:m, j]
            T[p, n] = xn[j] + sign * step
            xn[leave] = lo[leave] if a > 0 else hi[leave]
            if xn[leave] < g[leave]:
                up[leave], down[leave] = 1.0, -np.inf
            else:
                up[leave] = -1.0
                down[leave] = -1.0 if g[leave] > 0 else -np.inf
            xn[j] = 0.0
            lo[j], hi[j] = (g[j], np.inf) if cj > 0 else (0.0, g[j])
            up[j] = down[j] = -np.inf
            piv = T[p, :n] / T[p, j]
            T[:m, :n] -= np.outer(T[:m, j], piv)
            T[m, :n] -= (T[m, j] - cj) * piv
            T[p, :n] = piv
            basis[p] = j
            events.append(("pivot", bland))
        obj -= step * r[j]
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


def start(A, b, g, basis):
    """The first round's dense (m+1) x (n+1) tableau and state, built as
    simplex builds them: B^-1 A, then the basic values as column n and the
    row z as row m."""
    m, n = A.shape
    Binv = np.linalg.inv(A[:, basis])
    xb = Binv @ b
    xb[np.abs(xb) < 1e-11] = 0.0
    below = xb < g[basis]
    lo, hi = np.zeros(n), np.full(n, np.inf)
    lo[basis] = np.where(below, 0.0, g[basis])
    hi[basis] = np.where(below, g[basis], np.inf)
    up = np.where(g > 0.0, 1.0, -1.0)
    up[basis] = -np.inf
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = Binv @ A
    T[:m, n] = xb
    T[m, :n] = np.where(below, -1.0, 1.0) @ Binv @ A
    return T, [np.zeros(n), lo, hi, up, np.full(n, -np.inf)]


def by_columns(T):
    """The dense tableau as _iterate holds it: (TT, xb), row j of TT being
    column j of B^-1 A and then z_j."""
    m, n = T.shape[0] - 1, T.shape[1] - 1
    TT = np.empty((n, m + 1))
    TT[:, :m] = T[:m, :n].T
    TT[:, m] = T[m, :n]
    return TT, T[:m, n].copy()


def from_columns(TT, xb):
    """The inverse of by_columns."""
    n, m = TT.shape[0], TT.shape[1] - 1
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = TT[:, :m].T
    T[m, :n] = TT[:, m]
    T[:m, n] = xb
    return T


def pivot_path(iterate, A, b, g, basis, *extra):
    """Runs iterate from the first round's state. _iterate takes the
    tableau by columns and the basic segments by basis position,
    dense_iterate the dense tableau and the segments by variable; the
    tableau returned is dense, and the state the one iterate updated, with
    the basis it ended on."""
    T, state = start(A, b, g, basis)
    log = np.array(basis).view(PivotLog)
    log.log = []
    budget = 50 * A.shape[1]
    if iterate is _iterate:
        state[1:3] = state[1][basis], state[2][basis]
        TT, xb = by_columns(T)
        claimed, it = _iterate(TT, xb, log, g, *state, budget)
        T = from_columns(TT, xb)
    else:
        claimed, it = iterate(T, log, g, *state, budget, *extra)
    return claimed, it, log.log, T, state, np.asarray(log)


def tilted_match_lp(mdp, expert):
    """A matching LP whose target is half the expert occupancy and half a
    hashed tilt, so the crash is far from optimal."""
    d = exact_occupancy(mdp, expert).d
    tilt = np.array([mix64(98, i) for i in range(d.size)]) / 2.0**64
    g = 0.5 * d + 0.5 * (tilt / tilt.sum()).reshape(d.shape) * mdp.horizon
    Amat, b = build_match_lp(mdp)
    return Amat, b, g.ravel(), crash_basis(mdp)


def test_iteration_cap_reports_failure_not_lies(monkeypatch):
    # One iteration is not enough on the tilted bc-lb LP: _iterate stops at
    # its budget without claiming optimality.
    A, b, g, basis = tilted_match_lp(
        *make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7))
    T, (xn, lo, hi, up, down) = start(A, b, g, basis)
    out = _iterate(*by_columns(T), np.array(basis), g, xn, lo[basis],
                   hi[basis], up, down, 1)
    assert out == (False, 1)
    # simplex turns an exhausted 50 * n budget into a failure, not a point.
    monkeypatch.setattr(simplex_module, "_iterate",
                        lambda *args: (False, args[-1]))
    x, obj, status, it = solve(A, b, g, basis)
    assert (x, obj, status) == (None, np.inf, "numeric-failure")
    assert it == 50 * A.shape[1]


def test_the_round_cap_ends_a_solve_that_keeps_iterating(monkeypatch):
    # An _iterate that claims an optimum after one iteration and changes
    # nothing: every round's certificate fails on the tilted bc-lb LP, and
    # the loop gives up after _MAX_ROUNDS rounds.
    A, b, g, basis = tilted_match_lp(
        *make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7))
    rounds = []
    monkeypatch.setattr(simplex_module, "_iterate",
                        lambda *args: rounds.append(args) or (True, 1))
    x, obj, status, it = solve(A, b, g, basis)
    assert (x, obj, status) == (None, np.inf, "numeric-failure")
    assert it == len(rounds) == _MAX_ROUNDS == 20


def test_sparse_update_follows_the_dense_pivot_path(monkeypatch):
    lps = [tilted_match_lp(*make_mm_lb(8, 1024)),
           tilted_match_lp(*make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7))]
    # A zero right-hand side and a one-pivot stall limit force Bland's rule.
    lps.append((np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]]),
                np.array([1.0, 0.0]), np.array([0.8, 0.8, 0.0, 0.0]), [2, 3]))
    # Degenerate rows and small targets, some of them zero: with a one-pivot
    # stall limit Bland's rule takes over and still flips.
    A, b, basis = slack_form(
        unit(mix64(104, 0), 6, 9) - 0.3,
        np.where(unit(mix64(104, 1), 6) < 0.5, 0.0, 1.0))
    g = np.where(unit(mix64(104, 3), 15) < 0.3, 0.0, 0.2)
    lps.append((A, b, g, basis))
    paths = {}
    for k, (A, b, g, basis) in enumerate(lps):
        for stall_limit in (200, 1):
            events = []
            monkeypatch.setattr(simplex_module, "STALL_LIMIT", stall_limit)
            sparse = pivot_path(_iterate, A, b, g, basis)
            dense = pivot_path(dense_iterate, A, b, g, basis, stall_limit,
                               events)
            assert sparse[0] and dense[0], k
            assert sparse[1] == dense[1] == len(events), (k, stall_limit)
            assert sparse[2] == dense[2], (k, stall_limit)
            assert len(sparse[2]) > 0
            # Equal up to the sign of zeros, so bit for bit otherwise.
            assert np.array_equal(sparse[3], dense[3]), (k, stall_limit)
            # The dense reference keeps the segments by variable.
            xn, lo, hi, up, down = dense[4]
            final = dense[5]
            for got, want in zip(sparse[4], (xn, lo[final], hi[final], up,
                                             down)):
                assert np.array_equal(got, want), (k, stall_limit)
            paths[k, stall_limit] = sparse[2], events
    # Both matching LPs flip: iterations that changed no basis column.
    for k in (0, 1):
        assert ("flip", False) in paths[k, 200][1], k
    assert ("flip", True) in paths[3, 1][1]  # a flip under Bland's rule
    assert paths[3, 1][0] != paths[3, 200][0]  # Bland's rule took over


BC_LB = {"family": "bc-lb", "states": 16, "actions": 2, "reset": "geometric",
         "ratio": 0.5, "construction_seed": 7}


def matching_solves(monkeypatch):
    """The arguments of every simplex call the matching solve makes from
    now on."""
    calls = []
    real = simplex_module.simplex
    monkeypatch.setattr(simplex_module, "simplex",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_cached_first_round_solves_bit_for_bit(clear_caches, monkeypatch):
    # mm and re dataset targets and a tilted target on bc-lb S=16 and mm-lb,
    # H=8: the solve passes its mdp's cached crash start, which holds the
    # bytes of a fresh factor of its basis, and the same LP solved from that
    # fresh start gives the same x bytes, bound, status and iterations.
    calls = matching_solves(monkeypatch)
    for inst, (mdp, expert) in (
            ({"family": "mm-lb"}, make_mm_lb(8, 1024)),
            (BC_LB, make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7))):
        for lid in ("mm", "re"):
            for i in range(3):
                row = run_cell(inst, {"id": lid}, 8, 1024, mix64(17, i))
                assert row.status == "ok"
        g = tilted_match_lp(mdp, expert)[2]
        sol = solve_occupancy_match(mdp, MatchTarget(g.reshape(
            mdp.horizon, mdp.num_states, mdp.num_actions)))
        assert sol.status == "optimal"
    assert len(calls) == 2 * (2 * 3 + 1)
    assert crash_factor.cache_info().misses == 2
    pivoted = 0
    for A, b, g, start in calls:
        fresh = factor(A, b, start[0])
        assert [a.tobytes() for a in start] == [a.tobytes() for a in fresh]
        warm, cold = simplex(A, b, g, start), simplex(A, b, g, fresh)
        assert warm[0].tobytes() == cold[0].tobytes()
        assert warm[1:] == cold[1:]
        pivoted += warm[3] > 0
    assert pivoted >= 4


def test_the_crash_factor_is_built_once_per_mdp_and_read_only(clear_caches):
    mdp = make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)[0]
    A, b = build_match_lp(mdp)
    basis = crash_basis(mdp)
    start = crash_factor(CrashLp(mdp, A, b, basis))
    # Keyed by the mdp alone: an equal LP held in other arrays hits.
    assert crash_factor(CrashLp(mdp, A.copy(), b.copy(), list(basis))) \
        is start
    assert crash_factor.cache_info()[:2] == (1, 1)
    # The basis is part of the read-only start.
    B0, Binv, xb, BinvA = start
    assert np.array_equal(B0, basis)
    assert not any(arr.flags.writeable for arr in start)
    assert np.abs(Binv @ A[:, basis] - np.eye(len(basis))).max() <= 1e-12
    assert np.array_equal(xb, Binv @ b)
    assert np.array_equal(BinvA, Binv @ A)


# The digest of the pinned solves' bytes (test_solver_bytes_are_pinned),
# recorded at commit 85ed549 with numpy 2.4.6 and its bundled OpenBLAS on
# x86-64. Another BLAS build may round the crash factor differently and
# move it with no change to the solver.
SOLVER_BYTES = "9a830fd7e7bf6434842553e7bf812ca6"


def test_solver_bytes_are_pinned(monkeypatch):
    # bc-lb S=16, H=8: the mm and re targets of 8 run seeds and the tilted
    # target; mm-lb, H=8: the mm and re targets at N = 256 ... 16384. One
    # blake2b digest of every solve's x bytes, objective (float.hex), status
    # and iterations: a change that moves any bit, or any pivot count, has
    # to update SOLVER_BYTES on purpose.
    calls = matching_solves(monkeypatch)
    for i in range(8):
        for lid in ("mm", "re"):
            run_cell(BC_LB, {"id": lid}, 8, 1024, mix64(611, i))
    for i, n_exp in enumerate((256, 1024, 4096, 16384)):
        for lid in ("mm", "re"):
            run_cell({"family": "mm-lb"}, {"id": lid}, 8, n_exp,
                     mix64(611, 8 + i))
    mdp, expert = make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)
    A, b, g, basis = tilted_match_lp(mdp, expert)
    calls.append((A, b, g, factor(A, b, basis)))
    digest, iterations = hashlib.blake2b(digest_size=16), []
    for A, b, g, start in calls:
        x, obj, status, it = simplex(A, b, g, start)
        digest.update(b"" if x is None else x.tobytes())
        digest.update(f"{float(obj).hex()} {status} {it};".encode())
        iterations.append(it)
    assert len(calls) == 25
    # Every bc-lb solve pivots, and some mm-lb solve does.
    assert min(iterations[:16] + iterations[24:]) > 0, iterations
    assert max(iterations[16:24]) > 0, iterations
    assert digest.hexdigest() == SOLVER_BYTES


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the ratio test can step backwards (ROADMAP item 1)")
def test_a_backward_ratio_step_still_reaches_the_optimum(monkeypatch):
    # bc-lb S=16, H=4, N=16384, the re target of run seed mix64(9, 0, 77):
    # from the action-0 crash the ratio test takes a negative step at
    # iteration 49, and the solve ends in numeric-failure after 62
    # iterations. HiGHS agrees with the certificate only at tight
    # feasibility tolerances.
    calls = matching_solves(monkeypatch)
    run_cell(BC_LB, {"id": "re"}, 4, 16384, mix64(9, 0, 77))
    (A, b, g, start), = calls
    x, obj, status, it = simplex(A, b, g, start)
    assert status == "optimal", (status, it)
    assert abs(obj - l1_reference(A, b, g, tol=1e-10)) <= 1e-12


def inverses(monkeypatch):
    """The matrices np.linalg.inv is called on from now on."""
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv",
                        lambda B: calls.append(B) or inv(B))
    return calls


def iterate_rounds(monkeypatch):
    """What every _iterate round returns from now on."""
    real, rounds = simplex_module._iterate, []
    monkeypatch.setattr(simplex_module, "_iterate",
                        lambda *args: rounds.append(real(*args)) or rounds[-1])
    return rounds


def test_a_round_that_moves_nothing_ends_the_solve(monkeypatch):
    # The same repro: the round after the crash claims an optimum after 62
    # iterations that the certificate then rejects. The next round reads
    # that basis off the tableau, prices out with no iteration and fails
    # the same check, so the solve ends there, with no inverse taken after
    # the crash factor.
    calls = matching_solves(monkeypatch)
    run_cell(BC_LB, {"id": "re"}, 4, 16384, mix64(9, 0, 77))
    (args,) = calls
    inverted, rounds = inverses(monkeypatch), iterate_rounds(monkeypatch)
    x, obj, status, it = simplex(*args)
    assert (x, obj, status, it) == (None, np.inf, "numeric-failure", 62)
    assert rounds == [(True, 62), (True, 0)]
    assert inverted == []


def test_a_solve_on_a_warm_crash_cache_inverts_nothing(clear_caches,
                                                       monkeypatch):
    # bc-lb S=16, H=8: the first cell factors the crash, once. The later
    # cells pivot and certify their last round from the tableau, so no
    # solve of theirs takes an inverse.
    inverted = inverses(monkeypatch)
    assert run_cell(BC_LB, {"id": "mm"}, 8, 1024, mix64(17, 0)).status == "ok"
    assert len(inverted) == 1
    inverted.clear()
    rounds = iterate_rounds(monkeypatch)
    for lid in ("mm", "re"):
        for i in range(1, 4):
            row = run_cell(BC_LB, {"id": lid}, 8, 1024, mix64(17, i))
            assert row.status == "ok"
    assert sum(it > 0 for _, it in rounds) >= 4
    assert inverted == []
