"""The pair scan behind the oscillation seminorm, on numpy arrays alone.

Prefix integrals at sorted nodes give the variance of every node-aligned
window exactly.  The scan reads the pairs in blocks of 16 nodes, and skips
the block pairs that an exact separable test, with allowances for
rounding, proves cannot beat the maximum, and the windows inside two
neighbouring blocks where a bound from the segments' means and variances
does, so its reading is the maximum over every pair, bit for bit.  It
reads about 2% of the pairs on random step functions, 1% on phi0 and a
tenth on the near-extremal ladders.  _step_scan stacks step functions on
one node grid as the columns of one scan.
"""

from __future__ import annotations

import numpy as np

# nodes per block of the pair scan.  Against 16, in medians of 21
# alternating in-process calls on 2 vCPUs, blocks of 20 took 1.00x the time
# of the line workload's nine scans, 1.04x on 48 columns of draws and 1.11x
# on 256; blocks of 24 took 0.97x, 1.14x and 1.24x.  Calls in one process
# share one warm heap and miss the page faults of the scan's fresh arrays,
# so a re-tune is measured in fresh processes, with tools/bench_pair.py
_BLOCK = 16

# values per batch of the pair scan: variances and bounds per group of block
# tests, table entries per chunk of exact tests, windows per gather of span
# units (b rows by 2b nodes, 64 units) or of block pairs (b by b + 1), and
# the swept band's (n - 1) F values, as _step_scan stacks
# _TILE // (n - 1) draws per scan, 64 on the 513-node grid.  At 2^14 the
# scans of build_ladder(4, 0.1, 5) at levels 6 and of the 16,041-node
# ladder took 1.06x and 1.12x the time; groups of _TILE pairs, not _TILE / 2, ran as fast
# and raised that scan's traced peak from 2.9 to 3.7 MB.  These timings are
# in-process calls too, with _BLOCK's caveat
_TILE = 2 ** 15

# windows shorter than this fraction of the domain are dropped from the
# pair scan: prefix-sum cancellation makes their variance meaningless
_MIN_WINDOW = 1e-9


def _window_var(tj, ti, s1j, s1i, s2j, s2i):
    """Widths and variances (w, v): w = tj - ti, mu = (s1j - s1i)/w, v = (s2j - s2i)/w - mu^2.

    The one order of operations behind every variance the pair scan reads,
    so a pair gets the same bits whichever step of the scan reads it.
    """
    w = tj - ti
    mu = s1j - s1i
    mu /= w
    v = s2j - s2i
    v /= w
    mu *= mu
    v -= mu
    return w, v


def _pair_scan(t, s1, s2):
    """Largest window variance, at least 0, per column, over node pairs t_i < t_j.

    t holds n sorted nodes and s1, s2, (n, F), the prefix integrals of F
    functions at them, one per column; one function is an (n, 1) column.
    Windows shorter than wmin, _MIN_WINDOW of the nodes' span, are skipped.
    Every variance the scan reads, in the spans, the block seeds and the
    block reads alike, comes from _window_var, and a pair is left unread
    only where a bound or a test proves that it cannot beat the maximum, so
    on finite prefix integrals, away from underflow and overflow, each
    reading is the maximum over all pairs, bit for bit.

    The nodes are cut into blocks of b = _BLOCK nodes, neighbours sharing
    an end node, the last block maybe shorter.  A pair from block I to a
    block J >= I + 2 is _block_pairs' to test and read.  Every other pair
    from a row of I lies in the span of I, nodes Ib to (I + 2)b: the
    segments of blocks I and I + 1, or of the last block alone.  The scan
    takes two steps:

    * spans: _span_bounds bounds every variance inside each span, per
      column.  Each column's span of largest bound is read first and
      raises the maximum, and then every (span, column) unit whose bound
      is not below the maximum passes.  If fewer than half the units pass,
      they are read by gather, rows Ib to Ib + b - 1 against nodes Ib + 1
      to Ib + 2b, the windows that end at or before their start masked.
      Otherwise the band, the pairs at most 2b nodes apart, which holds
      every span's pairs, is swept one diagonal at a time, since a swept
      variance costs about half a gathered one.  The near-extremal ladders
      take the sweep, with 94-99% of their units passing;
    * blocks: _block_pairs tests every block pair J >= I + 2 and reads the
      pairs of those that pass.

    The span bound.  Read s1, s2 and t as exact reals, as _block_pairs
    does.  Segment k, from node k to node k + 1, has length l_k and the
    differences a_k and b_k of s1 and s2, mean mu_k = a_k / l_k and
    variance e_k = b_k / l_k - mu_k^2.  A window made of segments k, of
    length L and mean mu, has the variance

        V = (1/L) sum l_k e_k + (1/L) sum l_k (mu_k - mu)^2,

    an identity, which holds also where the prefix sums break
    Cauchy-Schwarz and some e_k < 0.  The first term is at most max e_k,
    and the second is the variance of a law on [m, M], m and M the least
    and largest mu_k of the span, so at most (M - m)^2 / 4 (Popoviciu,
    Mathematica 9, 1935).  A computed variance is within 9u (|D2|/w +
    (D1/w)^2) of V, as _block_pairs derives, and |D2|/w <= P, the largest
    |b_k| / l_k of the span, and (D1/w)^2 = mu^2 <= Q, the largest mu_k^2,
    so this allowance does not depend on the window's length; the block
    test's r divides by the gap between its blocks, which is 0 between
    neighbours.  The scan takes P over the whole column, which only
    loosens the bound and spares a per-span reduction.

    The bound is formed from the computed mu_k and b_k / l_k, three
    roundings each, two differences and a division.  A computed e_k is
    within 4u |b_k| / l_k + 8u mu_k^2 of the exact one, so max e_k is at
    most its computed value plus 4u P + 8u Q; M - m is at most the
    computed gap plus 6u sqrt(Q), which adds 6u Q to (M - m)^2 / 4.  So a
    computed variance in the span is below the bound formed from computed
    values plus 13u P + 23u Q.  The bound's own roundings, in the gap, its
    square and three sums, add at most about 5u (P + Q), since the gap's
    square over 4 is at most Q and |e_k| <= P + Q, and P and Q formed from
    computed values are within 7u of the exact ones, relative.  All of it
    is below the allowance 16 eps (P + Q) = 32u (P + Q), so

        bound = (M - m)^2 / 4 + max e_k + 16 eps (P + Q)

    formed in floating point is at least every variance _window_var reads
    inside the span.  A NaN bound, which only a zero-length segment or an
    overflow makes, is never below the maximum, so its unit is read.

    A NaN variance, which only an overflow in the prefix integrals makes,
    takes its column of the diagonal, its span read, or its block pair and
    column, out of the maximum: the reduction passes it on, and np.fmax
    drops it.

    The gain rests on the bounds and tests excluding most units and block
    pairs.  Counting the span reads, the band, the seeds and the block
    reads, and a pair read in one of F columns as 1/F of a pair, the scan
    reads about 2% of the pairs on the oracle's 64-cell draws over the 2^9
    grid, where it gathers 7% of the units, and 0.9-1.6% on phi0 and the
    two rim extremals at levels 12, where it gathers 2 units of 256 or
    fewer.  It sweeps the band and reads 9-11% on the ladders of
    build_ladder's table at levels 6 (18% on the 1,745 nodes of (8, 0.3,
    3)) and 2.7% on the 16,041-node ladder of depth 6 at levels 10, where
    the outer-window bound alone left nearly all of them.
    """
    n, f = s1.shape
    best = np.zeros(f)
    wmin = _MIN_WINDOW * (t[-1] - t[0])
    # the span reads and the block steps index s1 and s2 flat, node x of column c at x f + c
    s1, s2 = np.ascontiguousarray(s1), np.ascontiguousarray(s2)
    b = _BLOCK
    bound = _span_bounds(t, s1, s2)
    cols = np.arange(f)
    # each column's span of largest bound seeds the maximum and is not read again
    top = np.argmax(bound, axis=0)
    # a span read's windows from a row to a node at or before it divide by w <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        _read_pairs(t, s1, s2, wmin, best, top * b, top * b + 1, cols, 2 * b)
        bound[top, cols] = -np.inf
        # the (span, column) units whose bound reaches the maximum
        ks, cs = np.nonzero(~(bound < best))
        if 2 * ks.size < bound.size:
            _read_pairs(t, s1, s2, wmin, best, ks * b, ks * b + 1, cs, 2 * b)
        else:
            tw = t[:, None]
            any_short = bool((np.diff(t) < wmin).any())
            for d in range(1, min(2 * b, n - 1) + 1):
                w, v = _window_var(tw[d:], tw[:-d], s1[d:], s1[:-d], s2[d:], s2[:-d])
                if any_short:
                    np.fmax(best, v.max(axis=0, where=w >= wmin, initial=-np.inf), out=best)
                else:
                    np.fmax(best, np.maximum.reduce(v), out=best)
    if n - 1 > 2 * b:
        _block_pairs(t, s1, s2, wmin, best)
    return best


def _span_bounds(t, s1, s2):
    """Bounds, (spans, F), on the variance _window_var reads of any window inside a span.

    Span k runs from node kb to node min(kb + 2b, n - 1), b = _BLOCK: the
    segments of blocks k and k + 1, or of the last block alone.  With mu_k
    and e_k the mean and variance of segment k, M and m the largest and
    least mu_k of the span, Q the larger of M^2 and m^2, and P the largest
    |b_k| / l_k of the column, the bound is (M - m)^2 / 4 + max e_k +
    16 eps (P + Q), derived in _pair_scan.  A NaN bound, which only a
    zero-length segment or an overflow makes, is never below the maximum.
    """
    n = s1.shape[0]
    first = np.arange(-(-(n - 1) // _BLOCK)) * _BLOCK

    def spans(op, x):
        """op over the segments of each span, from op over each block's."""
        x = op.reduceat(x, first)
        x[:-1] = op(x[:-1], x[1:])
        return x

    with np.errstate(all="ignore"):
        width = np.diff(t)[:, None]
        mu = np.diff(s1, axis=0)
        mu /= width
        e = np.diff(s2, axis=0)
        e /= width
        hi, lo = spans(np.maximum, mu), spans(np.minimum, mu)
        p = np.maximum(e.max(axis=0), -e.min(axis=0))
        mu *= mu
        e -= mu
        gap = hi - lo
        return 0.25 * (gap * gap) + spans(np.maximum, e) + 16.0 * np.finfo(float).eps * (
            p + np.maximum(hi * hi, lo * lo))


def _read_pairs(t, s1, s2, wmin, best, x0, y0, c, ny):
    """Raise best[c] to the largest variance of the windows from nodes x0 + [0, b) to y0 + [0, ny).

    One entry of x0, y0 and c per read, b = _BLOCK, gathered about _TILE
    values per _window_var call; a node index past n - 1 reads node n - 1.
    A batch whose shortest window is below wmin, or ends at or before it
    starts, masks those windows with their own w.
    """
    n, f = s1.shape
    s1f, s2f = s1.reshape(-1), s2.reshape(-1)
    rows, nodes = np.arange(_BLOCK)[:, None], np.arange(ny)[:, None]
    batch = _TILE // (_BLOCK * ny)
    for k0 in range(0, c.size, batch):
        pick = slice(k0, k0 + batch)
        k, col = c[pick].size, c[pick]
        # rows x and nodes y, (b, k) and (ny, k), and their entries in s1f, s2f
        x = np.minimum(x0[pick] + rows, n - 1)
        y = np.minimum(y0[pick] + nodes, n - 1)
        xs, ys = x * f + col, y * f + col
        w, v = _window_var(t[y], t[x][:, None], s1f[ys], s1f[xs][:, None],
                           s2f[ys], s2f[xs][:, None])
        v = v.reshape(-1, k)
        if (t[y[0]] - t[x[-1]] < wmin).any():
            v = v.max(axis=0, where=w.reshape(-1, k) >= wmin, initial=-np.inf)
        else:
            v = np.maximum.reduce(v)
        np.fmax.at(best, col, v)


def _block_pairs(t, s1, s2, wmin, best):
    """Raise best, per column, to the largest variance of the pairs from block I to J >= I + 2.

    Blocks are [first, last] = [kb, min(kb + b, n - 1)], b = _BLOCK.  Once
    per scan, tables hold the differences of t, s1 and s2 from each block's
    first node to its next b nodes, as (b, blocks[, F]), the last block's
    last node standing in for the nodes it lacks.  The block pairs are then
    taken in groups of consecutive row blocks, about _TILE / 2F pairs each,
    against the maximum after every earlier group:

    * seeds: the variance of each pair's outer window, from the first node
      of I to the last of J, raises the maximum;
    * bound: the outer-window bound tests every pair and column;
    * exact test: excluded takes what the bound leaves, _TILE / b tests at
      a time, each a gather along the block axis of the tables;
    * reads: each pair and column that passes both reads its b rows against
      J's b + 1 nodes by gather, about _TILE values per _window_var call,
      as soon as its chunk of tests is done, so later chunks test against
      the raised maximum.  A batch whose shortest window is below wmin
      masks its short windows with their own w.  Node e, the first of J,
      is I + 1's last node, read again with the same bits.

    The exact test.  Take I = [a, c] and J = [e, g], read s1, s2 and t as
    exact reals, and for a mean m and a level beta write

        Q(x, y) = (s2_y - s2_x) - 2m (s1_y - s1_x) + (m^2 - beta)(t_y - t_x).

    Q is additive over adjacent windows, and its least value over m is
    (t_y - t_x)(V(x, y) - beta), V the window variance, so for i in I and
    j in J

        (t_j - t_i)(V(i, j) - beta) <= Q(i, j) = Q(a, g) - Q(a, i) - Q(j, g)
                                    <= S = Q(a, g) - min_I Q(a, i) - min_J Q(j, g),

    and S < 0 proves V(i, j) < beta for every such pair.  The scan takes m
    the mean of [a, g] and beta = best - r, where r = 5 eps (R2/L_in +
    (R1/L_in)^2), eps = 2u = 2^-52, R1 and R2 the largest ranges of s1 and
    s2 over the nodes in any column and L_in = t_e - t_c, the gap between
    the blocks.  Each of the six operations of _window_var rounds once, so
    away from underflow a computed variance is within 9u (|D2|/w + (D1/w)^2)
    of V, D1, D2 and w the differences of s1, s2 and t; for a window from I
    to J, w >= L_in, that is below 0.9 r, and S < 0 leaves every variance
    computed from I to J below best - r + 0.9 r, under best.

    The outer-window bound is the same test with the two minima bounded
    from below.  The least value of Q(a, i) over m is -(D1^2/L - D2), D1,
    D2 and L the differences over [a, i]; with P_I the largest D1^2/L - D2
    over the windows [a, i] inside I and R_J that over the windows [j, g]
    inside J (the amount by which the prefix sums break Cauchy-Schwarz, 0
    for the integrals of a function), and beta >= 0, min_I Q(a, i) >= -P_I
    - beta (t_c - t_a), likewise for J, and S < 0 follows from

        bound = (L_out max(V(a, g), 0) + P_I + R_J) / L_in < beta,

    L_out = t_g - t_a.  It needs only the outer windows, so it comes first.
    In floating point it is read with V_out, the computed variance of [a, g],
    as (L_out max(V_out + r, 0) + P_I + R_J) / L_in + r < best, which
    beta < 0 never meets: P_I and R_J, taken as their largest value over the
    columns, have (1 + 4 eps) on D1^2/L for its four roundings, then (1 + 2
    eps) on their largest value and 4 eps R2 for the roundings of D1^2/L -
    D2; the bound has (1 + 8 eps) for the roundings of its nonnegative
    terms, about ten.

    The exact test is read in floating point as S < -A.  Every Q is formed
    as (D2 - (2m) D1) + c L, c = m^2 - beta from the computed m and beta,
    D1, D2 and L each one rounded difference, a table entry for Q(a, i) and
    Q(e, j).  Against the same sum in exact arithmetic with beta = best - r
    exactly, it is within u (3 R2 + 8 |m| R1 + 6 L_out (m^2 + |beta|)),
    since every window lies inside [a, g]; S is formed as ((Q(a, g) - min_I
    Q(a, i)) - Q(e, g)) + max_J Q(e, j), with min_J Q(j, g) = Q(e, g) -
    max_J Q(e, j), so its four Q and three sums are within 21u R2 + 50u |m|
    R1 + 33u L_out (m^2 + |beta|), below

        A = 17 eps (R2 + 2 |m| R1 + L_out (m^2 + |beta|)),

    which leaves room for A's own roundings.  A block pair whose outer
    window is shorter than wmin holds no window that counts and is never
    read.  A NaN bound or test, which only an overflow makes, counts as
    reaching.
    """
    n, f = s1.shape
    b = _BLOCK
    nb = -(-(n - 1) // b)
    eps = np.finfo(float).eps
    first = np.arange(nb) * b
    last = np.minimum(first + b, n - 1)
    r1, r2 = np.ptp(s1, axis=0).max(), np.ptp(s2, axis=0).max()

    def excess(e1, e2, et):
        """max(0, largest D1^2/L - D2 per block) with its rounding allowance."""
        p = np.divide(e1, et[..., None])
        p *= e1
        p *= 1.0 + 4.0 * eps
        p -= e2
        return np.maximum(p.max(axis=(0, 2)), 0.0) * (1.0 + 2.0 * eps) + 4.0 * eps * r2

    # R_J over the windows [j, g], j = e .. g - 1
    node = np.minimum(first + np.arange(b)[:, None], last - 1)
    d1, d2 = s1[node], s2[node]
    slack_j = excess(np.subtract(s1[last], d1, out=d1), np.subtract(s2[last], d2, out=d2),
                     t[last] - t[node])
    # the tables, (b, nb) for t and (b, nb, F) for s1 and s2, and P_I over their windows [a, i]
    node = np.minimum(first + np.arange(1, b + 1)[:, None], last)
    tt = t[node] - t[first]
    np.subtract(s1[node], s1[first], out=d1)
    np.subtract(s2[node], s2[first], out=d2)
    slack_i = excess(d1, d2, tt)
    d1, d2 = d1.reshape(b, nb * f), d2.reshape(b, nb * f)
    s1f, s2f = s1.reshape(-1), s2.reshape(-1)

    def excluded(beta, c, bi, bj):
        """True where the exact test excludes column c of block pair (bi, bj), one entry per test.

        Q(a, i) over I and Q(e, j) over J are formed as (b, tests) arrays
        from the tables.
        """
        a, g = first[bi], last[bj]
        sa, sg = a * f + c, g * f + c
        l_out = t[g] - t[a]
        e1 = s1f[sg] - s1f[sa]
        m = e1 / l_out
        cq = m * m - beta
        m2 = 2.0 * m
        q = ((s2f[sg] - s2f[sa]) - m2 * e1) + cq * l_out
        out, tmp = np.empty((2, b, c.size))

        def qs(blk):
            """Q from block blk's first node to its next b nodes, (b, tests), in out;
            mode="clip", on indices in range, spares take its buffered copy for out=."""
            col = blk * f + c
            np.take(d2, col, axis=1, out=out, mode="clip")
            np.multiply(np.take(d1, col, axis=1, out=tmp, mode="clip"), m2, out=tmp)
            np.subtract(out, tmp, out=out)
            np.multiply(np.take(tt, blk, axis=1, out=tmp, mode="clip"), cq, out=tmp)
            return np.add(out, tmp, out=out)

        # Q(a, a) = 0 and Q(e, e) = 0 join the least and the largest
        q -= np.minimum(np.minimum.reduce(qs(bi)), 0.0)
        qj = qs(bj)
        q -= qj[-1]
        q += np.maximum(np.maximum.reduce(qj), 0.0)
        return q < -17.0 * eps * (r2 + 2.0 * np.abs(m) * r1 + l_out * (m * m + np.abs(beta)))

    ta, tc, tg = t[first], t[last[:-2]], t[last]
    s1a, s2a, s1g, s2g = s1[first], s2[first], s1[last], s2[last]
    group, chunk = max(1, _TILE // (2 * f)), _TILE // b
    i0 = 0
    while i0 < nb - 2:
        # row blocks i0 .. i1 - 1 against blocks js, as a rectangle of about group pairs
        js = slice(i0 + 2, nb)
        i1 = min(nb - 2, i0 + max(1, group // (nb - js.start)))
        rows = slice(i0, i1)
        l_out = tg[js] - ta[rows, None]
        live = np.arange(js.start, nb) >= np.arange(i0, i1)[:, None] + 2
        inv = (1.0 + 8.0 * eps) / np.where(live, ta[js] - tc[rows, None], 1.0)
        r = 5.0 * eps * (r2 * inv + (r1 * inv) ** 2)
        # a block pair (I, J) with J < I + 2 reads junk, and one whose outer
        # window is shorter than wmin holds no window that counts: both seed
        # nothing and are never read
        live &= l_out >= wmin
        with np.errstate(all="ignore"):
            _, v = _window_var(tg[None, js, None], ta[rows, None, None], s1g[None, js],
                               s1a[rows, None], s2g[None, js], s2a[rows, None])
            v[~live] = -np.inf
            np.fmax(best, np.maximum.reduce(v.reshape(-1, f)), out=best)
            # bound = L_out / L_in max(V_out + r, 0) + (P_I + R_J) / L_in + r
            v += r[..., None]
            np.maximum(v, 0.0, out=v)
            v *= (l_out * inv)[..., None]
            v += ((slack_i[rows, None] + slack_j[js]) * inv + r)[..., None]
        ii, jj, cc = np.nonzero(~(v < best) & live[..., None])
        for c0 in range(0, ii.size, chunk):
            i, j, c = ii[c0 : c0 + chunk], jj[c0 : c0 + chunk], cc[c0 : c0 + chunk]
            with np.errstate(all="ignore"):
                keep = ~excluded(best[c] - r[i, j], c, i + i0, j + js.start)
            # the first nodes of the blocks I and J of each pair and column to read
            ri, rj, rc = first[i[keep] + i0], first[j[keep] + js.start], c[keep]
            _read_pairs(t, s1, s2, wmin, best, ri, rj, rc, b + 1)
        i0 = i1



def _step_scan(values, nodes, cell):
    """Largest window variance of each row of values, (D, cells), as a step function on the nodes.

    Segment k, from node k to node k + 1, holds the value of cell[k].
    _TILE // (n - 1) rows stack per scan of the n nodes, so no array the
    scan forms outgrows _TILE; the prefix integrals are running sums of
    value times width, then of value squared times width.
    """
    width = np.diff(nodes)[:, None]
    chunk = max(1, _TILE // (nodes.size - 1))
    best = np.empty(len(values))
    for c in range(0, len(values), chunk):
        v = values[c : c + chunk].T[cell]
        s1, s2 = np.zeros((2, nodes.size, v.shape[1]))
        np.cumsum(v * width, axis=0, out=s1[1:])
        np.cumsum(v * v * width, axis=0, out=s2[1:])
        best[c : c + chunk] = _pair_scan(nodes, s1, s2)
    return best
