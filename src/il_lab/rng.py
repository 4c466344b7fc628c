"""Counter-based randomness. Every draw is a pure function of the integers
hashed into it, so experiments are bit-reproducible across platforms and
trivially parallel. The hash is a splitmix64 absorb-finalize chain; absorb
runs one round in place, so a batch sampler can absorb a shared prefix once
and finish each draw's hash with the rounds that differ.

A draw u = (h >> 11) * 2^-53 is exact, so u >= c holds exactly when
(h >> 11) >= ceil(c * 2^53). draw_tables turns CDF rows into those integer
thresholds and gives each row a guide table (indexed search, Chen & Asau
1974; Devroye 1986, III.2.4): the draw's index for each of 2^8 equal
buckets of h's top bits, or -1 where a threshold splits the bucket.
categorical_rows answers most draws with one guide lookup and counts the
row's own thresholds only for the rest. A table whose every threshold is 0
or 2^53 is fixed: no hash can change any of its rows' draws, so
draw_tables stores each row's draw and categorical_rows answers with one
lookup that reads no hash. The scalar inverse-CDF draw it matches bit for
bit is kept with the tests, in tests/oracles.py."""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_G, _M1, _M2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

# Thresholds: ceil(cdf * 2^53), a threshold of 2^53 never being reached by
# a 53-bit draw.
_BITS = 53
_NEVER = 1 << _BITS
_DROP = np.uint64(64 - _BITS)

# Guides: a row's 2^53 draws x = h >> 11 split into _BUCKETS equal buckets,
# bucket b holding the x whose top _GUIDE_BITS bits are b, so that
# h >> _GUIDE_DROP addresses it. Narrower guides miss more often (bc-lb
# S=20: 9% of draws at 6 bits, 3% at 8); wider ones cost more to build and
# measured no faster.
_GUIDE_BITS = 8
_BUCKETS = 1 << _GUIDE_BITS
_BUCKET_SHIFT = np.uint64(_BITS - _GUIDE_BITS)
_BUCKET_MASK = np.uint64((1 << (_BITS - _GUIDE_BITS)) - 1)
_GUIDE_DROP = np.uint64(64 - _GUIDE_BITS)
_MISS = -1


def mix64(*vals):
    """Order-sensitive hash of any number of integers onto 64 bits."""
    h = 0
    for v in vals:
        h = (h + _GAMMA + (int(v) & _MASK)) & _MASK
        h = ((h ^ (h >> 30)) * _MIX1) & _MASK
        h = ((h ^ (h >> 27)) * _MIX2) & _MASK
        h ^= h >> 31
    return h


def absorb(h, v, tmp):
    """One mix64 round on the uint64 array h, in place: h becomes the hash
    of its chain extended by v (an int, or an array broadcasting to h).
    tmp is uint64 scratch of h's shape."""
    if np.ndim(v) == 0:
        h += np.uint64((_GAMMA + (int(v) & _MASK)) & _MASK)
    else:
        h += np.asarray(v).astype(np.uint64, copy=False)
        h += _G
    np.right_shift(h, _S30, out=tmp)
    h ^= tmp
    h *= _M1
    np.right_shift(h, _S27, out=tmp)
    h ^= tmp
    h *= _M2
    np.right_shift(h, _S31, out=tmp)
    h ^= tmp


def mix64_array(*vals):
    """Vectorized mix64. Each val is an int or uint64-compatible ndarray;
    arrays broadcast. Bit-identical to mix64 applied elementwise: the
    leading scalars are hashed once, by mix64, and each val from the first
    array on is absorbed into the filled array."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in vals))
    if shape == ():
        return np.uint64(mix64(*vals))
    k = next(i for i, v in enumerate(vals) if np.ndim(v))
    h = np.full(shape, mix64(*vals[:k]), np.uint64)
    tmp = np.empty_like(h)
    for v in vals[k:]:
        absorb(h, v, tmp)
    return h


def unit_double_array(h):
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def last_positive(prob_table):
    """Index of the last strictly positive entry along the final axis."""
    flipped = prob_table[..., ::-1] > 0
    return prob_table.shape[-1] - 1 - flipped.argmax(axis=-1)


def draw_tables(probs):
    """Draw tables for probability rows probs (..., R, k): one table per
    leading index, drawing from its R rows. Entry j of a row holds
    ceil(cdf_j * 2^53), or 2^53 ("never") from the row's last positive
    entry on, which folds the scalar draw's clamp to that entry into the
    table; the last entry is always "never" and is not stored. A table is
    (thr, guide, fixed): thr the (R, k - 1) uint64 thresholds, guide the
    rows' guides, flat, and fixed the rows' draws, (thr == 0).sum(axis=1)
    in the guide's dtype, when every threshold is 0 or "never" (every row
    deterministic, or k = 1), else None. All arrays are read-only, so the
    tables can be shared."""
    probs = np.asarray(probs)
    *lead, R, k = probs.shape
    w = k - 1
    cdf = np.cumsum(probs[..., :w], axis=-1)
    thr = np.minimum(np.ceil(cdf * 2.0**_BITS), _NEVER).astype(np.uint64)
    thr[np.arange(w) >= last_positive(probs)[..., None]] = _NEVER
    L = math.prod(lead)
    thr = thr.reshape(L, R, w)
    guides = _guides(thr.reshape(L * R, w), k).reshape(L, R << _GUIDE_BITS)
    zero = thr == 0
    is_fixed = (zero | (thr == _NEVER)).all(axis=(1, 2))
    draws = zero.sum(axis=2, dtype=guides.dtype)
    for a in (thr, guides, draws):
        a.flags.writeable = False
    return tuple((t, g, d if f else None)
                 for t, g, d, f in zip(thr, guides, draws, is_fixed))


def _guides(thr, k):
    """Guide rows for threshold rows thr (rows, k - 1), flat. Entry b of a
    row is the draw's index for every x = h >> 11 in bucket b, the x whose
    top _GUIDE_BITS bits are b, or _MISS when a threshold lies strictly
    inside the bucket. The index at bucket b's low edge counts the
    thresholds at or below it, those with ceil(thr / bucket width) <= b,
    so a row is a run of each index in turn; then its inner buckets are
    marked. The dtype is the narrowest that holds -1 and k - 1."""
    n, w = thr.shape
    ceil = ((thr + _BUCKET_MASK) >> _BUCKET_SHIFT).view(np.int64)
    runs = np.empty((n, k), np.int64)
    runs[:, :w] = ceil
    runs[:, w] = _BUCKETS
    runs[:, 1:] -= ceil
    index = np.arange(k, dtype=np.min_scalar_type(-k))
    guide = np.repeat(np.repeat(index[None], n, axis=0), runs.ravel())
    floor = (thr >> _BUCKET_SHIFT).view(np.int64)
    inner = floor != ceil
    floor += (np.arange(n) << _GUIDE_BITS)[:, None]
    guide[floor[inner]] = _MISS
    return guide


def categorical_rows(table, rows, h_arr):
    """Batch inverse-CDF: draw i comes from row rows[i] of a draw_tables
    table on hash h_arr[i], as the count of the row's thresholds at or
    below x = h >> 11, bit for bit the scalar inverse-CDF draw. Most draws
    are one lookup in the row's guide at the top bits of h; only the draws
    whose bucket a threshold splits count their row's thresholds. A fixed
    table answers every draw from its stored draws and reads no hash.
    rows may have any integer dtype: the guide offset is formed in int64.
    Returns the indices in the guide's dtype."""
    thr, guide, fixed = table
    if fixed is not None:
        return fixed.take(rows)
    q = np.left_shift(rows, _GUIDE_BITS, dtype=np.int64)
    q |= (h_arr >> _GUIDE_DROP).view(np.int64)
    out = guide.take(q)
    miss = np.flatnonzero(out < 0)
    if miss.size:
        x = h_arr[miss] >> _DROP
        out[miss] = (thr[rows[miss]] <= x[:, None]).sum(axis=1)
    return out
