import math

import numpy as np
import pytest

from il_lab import rng
from il_lab.rng import absorb, categorical_rows, draw_tables, \
    last_positive, mix64, mix64_array, unit_double_array
from oracles import categorical, unit_double


def test_mix64_matches_vectorized_path():
    idx = np.arange(4096, dtype=np.uint64)
    vec = mix64_array(7, idx)
    scalar = np.array([mix64(7, int(i)) for i in range(4096)], dtype=np.uint64)
    assert np.array_equal(vec, scalar)


def test_mix64_multi_argument_chain():
    idx = np.arange(64, dtype=np.uint64)
    vec = mix64_array(3, idx, 9)
    scalar = np.array([mix64(3, int(i), 9) for i in range(64)], dtype=np.uint64)
    assert np.array_equal(vec, scalar)


def test_leading_scalars_are_hashed_once_bit_for_bit():
    # mix64_array hashes its leading scalars once and fills the array: two
    # leading ints, a 0-d numpy scalar and a negative int, and a 0-d array,
    # each before an array and a trailing int.
    idx = np.arange(50, dtype=np.uint64)
    for lead in ((7, 3), (np.uint64(2**63 + 5), -1), (np.array(9),)):
        vec = mix64_array(*lead, idx, 4)
        scalar = [mix64(*lead, i, 4) for i in range(50)]
        assert np.array_equal(vec, np.array(scalar, dtype=np.uint64))


def test_absorb_extends_a_shared_prefix():
    # Absorbing a prefix once and each suffix in place gives the full hash.
    idx = np.arange(100, dtype=np.uint64)
    prefix = np.zeros(100, np.uint64)
    tmp = np.empty_like(prefix)
    absorb(prefix, idx, tmp)
    for t in (0, 5):
        for c in (0, 1):
            h = prefix.copy()
            absorb(h, t, tmp)
            absorb(h, c, tmp)
            assert np.array_equal(h, mix64_array(idx, t, c))
    assert mix64_array(-1, idx)[3] == mix64(-1, 3)


def test_mix64_golden_values():
    # Frozen outputs; a change here silently invalidates every seeded result.
    assert mix64(0) == 16294208416658607535
    assert mix64(1) == 10451216379200822465
    assert mix64(42, 7) == 18315876358090669558
    assert mix64(2, 3, 4) == 2818774327441191192


def test_mix64_is_deterministic_and_spreads():
    vals = {mix64(0, i) for i in range(1000)}
    assert len(vals) == 1000
    assert mix64(123, 456) == mix64(123, 456)


def test_unit_double_range_and_consistency():
    hs = mix64_array(11, np.arange(10000, dtype=np.uint64))
    u = unit_double_array(hs)
    assert (u >= 0).all() and (u < 1).all()
    assert u[0] == unit_double(int(hs[0]))
    assert abs(u.mean() - 0.5) < 0.02


def test_categorical_matches_cdf_inversion():
    row = np.array([0.2, 0.0, 0.5, 0.3])
    cdf = np.cumsum(row)
    for i in range(200):
        h = mix64(5, i)
        k = categorical(row, h)
        u = unit_double(h)
        expect = int(np.searchsorted(cdf, u, side="right"))
        assert k == min(expect, 3)
        assert row[k] > 0


def test_categorical_never_returns_zero_mass_index():
    row = np.array([0.0, 1.0, 0.0])
    for i in range(50):
        assert categorical(row, mix64(6, i)) == 1


def test_categorical_rows_matches_scalar():
    # Zero-mass entries first, in the middle and last; a deterministic row;
    # dyadic rows whose CDF values a 53-bit draw can hit exactly; a row whose
    # CDF ends one ulp below 1, so the largest draw needs the clamp.
    probs = np.array([[0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.0, 0.7],
                      [0.0, 0.0, 1.0, 0.0], [0.0, 0.25, 0.5, 0.25],
                      [0.25, 0.25, 0.25, 0.25], [0.7, 0.2, 0.1, 0.0]])
    assert np.cumsum(probs[5])[-1] < 1.0
    table = draw_tables(probs[None])[0]
    n = 300
    hs = mix64_array(8, np.arange(n, dtype=np.uint64))
    # Hashes whose 53-bit draw lands one step below, on, or just above
    # each CDF value (on it exactly for the dyadic ones).
    edges = {min(max(math.floor(c * 2**53) + d, 0), 2**53 - 1)
             for c in np.cumsum(probs, axis=1).ravel() for d in (-1, 0, 1)}
    hs = np.concatenate([hs, np.array([x << 11 for x in sorted(edges)]
                                      + [(1 << 64) - 1], dtype=np.uint64)])
    for r in range(len(probs)):
        rows = np.full(len(hs), r)
        scalar = np.array([categorical(probs[r], int(h)) for h in hs])
        assert np.array_equal(categorical_rows(table, rows, hs), scalar)
    rows = np.arange(len(hs)) % len(probs)
    scalar = [categorical(probs[r], int(h)) for r, h in zip(rows, hs)]
    assert categorical_rows(table, rows, hs).tolist() == scalar


# The most rows whose keys (row << 53) + threshold fit in 64 bits: a table
# with more rows than this cannot be one sorted uint64 key array.
KEY_ROWS = 2047


def test_categorical_rows_spans_row_blocks():
    # More rows than one packed uint64 key array could index: every row
    # still draws as the scalar categorical does. Each row ends in a
    # "never" threshold, 2^53.
    R = KEY_ROWS + 5
    kinds = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    probs = kinds[np.arange(R) % 3]
    table = draw_tables(probs[None])[0]
    rows = np.arange(2 * R) % R
    hs = mix64_array(12, np.arange(2 * R, dtype=np.uint64))
    scalar = [categorical(probs[r], int(h)) for r, h in zip(rows, hs)]
    assert categorical_rows(table, rows, hs).tolist() == scalar


# ------------------------------------------------------------------ guides

BUCKET = 1 << (53 - rng._GUIDE_BITS)


def near_cdf(probs):
    """Hashes whose 53-bit draw lands one step below, on and one above each
    CDF value of the rows, with the 11 dropped bits set."""
    xs = {min(max(math.floor(c * 2**53) + d, 0), 2**53 - 1)
          for c in np.cumsum(probs, axis=1).ravel() for d in (-1, 0, 1)}
    return np.array([(x << 11) | 0x7FF for x in sorted(xs)], dtype=np.uint64)


def assert_rows_match_scalar(probs, rows, hs):
    """Draws from rows of probs on hashes hs equal the scalar oracle's;
    returns the draw table."""
    table = draw_tables(probs[None])[0]
    got = categorical_rows(table, rows, hs)
    assert got.tolist() == [categorical(probs[r], int(h))
                            for r, h in zip(rows, hs)]
    return table


def every_row(probs, hs):
    """Every (row, hash) pair, row-major."""
    return np.repeat(np.arange(len(probs)), len(hs)), np.tile(hs, len(probs))


def bucket_edges():
    """The lowest and the highest hash of every guide bucket."""
    low = np.arange(rng._BUCKETS, dtype=np.uint64) * np.uint64(BUCKET)
    high = low + np.uint64(BUCKET - 1)
    return np.concatenate([low << np.uint64(11),
                           (high << np.uint64(11)) | np.uint64(0x7FF)])


def test_guide_draws_at_bucket_edges():
    # The lowest draw of every bucket and the highest, one below the next
    # bucket's edge, on rows with thresholds inside buckets and on them.
    probs = np.array([[0.1, 0.2, 0.0, 0.7], [0.3, 0.3, 0.4, 0.0],
                      [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 1.0, 0.0],
                      [0.7, 0.2, 0.1, 0.0]])
    assert_rows_match_scalar(probs, *every_row(probs, bucket_edges()))


def test_guide_rows_on_bucket_edges_never_search():
    # Dyadic rows put every threshold on a bucket edge, and deterministic
    # rows put theirs at 0 or "never": no guide entry is a miss, so each
    # draw is one guide lookup.
    probs = np.array([[0.25, 0.5, 0.25], [1 / rng._BUCKETS,
                                          1 - 1 / rng._BUCKETS, 0.0],
                      [0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    hs = np.concatenate([near_cdf(probs),
                         mix64_array(13, np.arange(200, dtype=np.uint64))])
    _, guide, _ = assert_rows_match_scalar(probs, *every_row(probs, hs))
    assert (guide >= 0).all()


def test_guide_zero_mass_tails():
    # Zero-mass entries after the last positive one are never drawn, also
    # when the CDF ends one ulp below 1 and the largest hash needs the
    # clamp that draw_tables folds in.
    probs = np.array([[0.3, 0.7, 0.0, 0.0], [0.1, 0.0, 0.9, 0.0],
                      [1.0, 0.0, 0.0, 0.0], [0.7, 0.2, 0.1, 0.0]])
    assert np.cumsum(probs[3])[-1] < 1.0
    hs = np.concatenate([near_cdf(probs), np.array([(1 << 64) - 1],
                                                   dtype=np.uint64)])
    rows, hs = every_row(probs, hs)
    table = assert_rows_match_scalar(probs, rows, hs)
    assert (probs[rows, categorical_rows(table, rows, hs)] > 0).all()


def test_guide_bucket_holding_several_thresholds():
    # More thresholds than buckets: some buckets hold several, and every
    # draw in them falls back to counting the row's thresholds.
    k = 3 * rng._BUCKETS + 1
    w = (mix64_array(14, np.arange(k, dtype=np.uint64)) % np.uint64(7)
         ).astype(np.float64) + 1.0
    probs = (w / w.sum())[None]
    hs = np.concatenate([near_cdf(probs),
                         mix64_array(15, np.arange(500, dtype=np.uint64))])
    _, guide, _ = assert_rows_match_scalar(probs, *every_row(probs, hs))
    assert (guide < 0).mean() > 0.9


@pytest.mark.parametrize("k", [128, 129, 300])
def test_guide_dtype_holds_the_widest_index(k):
    # All mass on the last two entries: the guide stores k - 2 and k - 1,
    # which an 8-bit guide could not hold past k = 128.
    probs = np.zeros((1, k))
    probs[0, -2:] = 0.5
    hs = mix64_array(16, np.arange(200, dtype=np.uint64))
    rows = np.zeros(len(hs), np.int64)
    table = assert_rows_match_scalar(probs, rows, hs)
    assert np.iinfo(table[1].dtype).max >= k - 1
    assert set(categorical_rows(table, rows, hs).tolist()) == {k - 2, k - 1}


def test_guide_misses_search_every_block():
    # Rows on both sides of row KEY_ROWS whose thresholds lie inside
    # buckets: their draws next to a threshold miss the guide and count
    # their own row's thresholds.
    R = KEY_ROWS + 5
    kinds = np.array([[0.3, 0.7, 0.0], [0.6, 0.1, 0.3], [0.0, 0.9, 0.1]])
    probs = kinds[np.arange(R) % 3]
    some = np.r_[0:4, KEY_ROWS - 3:R]
    hs = near_cdf(kinds)
    rows, hs = np.repeat(some, len(hs)), np.tile(hs, len(some))
    _, guide, _ = assert_rows_match_scalar(probs, rows, hs)
    bucket = (hs >> np.uint64(64 - rng._GUIDE_BITS)).astype(np.int64)
    missed = rows[guide[(rows << rng._GUIDE_BITS) + bucket] < 0]
    assert (missed < KEY_ROWS).any()
    assert (missed >= KEY_ROWS).any()


# ------------------------------------------------------------ fixed tables

def is_fixed(probs):
    return draw_tables(probs[None])[0][2] is not None


def test_one_hot_tables_are_fixed():
    # One-hot rows at the first, a middle and the last index: every
    # threshold is 0 or "never", and the stored draws are the hot indices.
    probs = np.eye(5)[[0, 2, 4, 2]]
    thr, guide, fixed = draw_tables(probs[None])[0]
    assert set(thr.ravel().tolist()) <= {0, 2**53}
    assert fixed.tolist() == [0, 2, 4, 2] and fixed.dtype == guide.dtype
    # A k = 1 table has no thresholds and always draws 0.
    thr, _, fixed = draw_tables(np.ones((1, 3, 1)))[0]
    assert thr.shape == (3, 0) and fixed.tolist() == [0, 0, 0]


def test_a_hash_that_can_move_a_draw_unfixes_the_table():
    # Mass 2^-60 at entry 0 rounds to threshold 1, not 0: the draw on
    # x = 0 is 0 and every other draw is 1, so the table is not fixed.
    tiny = np.array([[2.0**-60, 1.0, 0.0]])
    thr, _, fixed = draw_tables(tiny[None])[0]
    assert thr.tolist() == [[1, 2**53]] and fixed is None
    hs = np.array([0, 1 << 11, (1 << 64) - 1], dtype=np.uint64)
    assert_rows_match_scalar(tiny, np.zeros(3, np.int64), hs)
    assert [categorical(tiny[0], int(h)) for h in hs] == [0, 1, 1]
    # One stochastic row among one-hot ones.
    mixed = np.eye(3)[[0, 1, 2, 1]]
    mixed[3] = [0.0, 0.5, 0.5]
    assert not is_fixed(mixed)
    assert is_fixed(np.eye(3)[[0, 1, 2, 1]])


def test_fixed_tables_draw_as_the_scalar_oracle():
    # Every row of each fixed table, at the lowest and the highest hash of
    # every bucket and on two unrelated hash arrays: the draws equal the
    # scalar oracle's and do not depend on the hashes.
    for probs in (np.eye(4)[[3, 0, 1, 2, 0]], np.ones((2, 1))):
        assert is_fixed(probs)
        table = assert_rows_match_scalar(probs,
                                         *every_row(probs, bucket_edges()))
        rows = np.arange(600) % len(probs)
        a = mix64_array(17, np.arange(600, dtype=np.uint64))
        b = mix64_array(18, np.arange(600, dtype=np.uint64))
        assert_rows_match_scalar(probs, rows, a)
        assert np.array_equal(categorical_rows(table, rows, a),
                              categorical_rows(table, rows, b))


def test_last_positive():
    probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.2, 0.8]])
    assert last_positive(probs).tolist() == [1, 0, 2]


def test_categorical_frequencies():
    row = np.array([0.25, 0.75])
    hs = mix64_array(9, np.arange(20000, dtype=np.uint64))
    draws = categorical_rows(draw_tables(row[None, None])[0],
                             np.zeros(20000, dtype=np.int64), hs)
    frac = draws.mean()
    assert abs(frac - 0.75) < 3 * np.sqrt(0.25 * 0.75 / 20000) + 1e-3
