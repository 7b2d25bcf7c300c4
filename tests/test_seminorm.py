"""The pair scan of seminorm: bit for bit against loop references, its bounds, reads and memory."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmobell import seminorm, testfn
from bmobell import (
    ConstPiece,
    LogPiece,
    PiecewiseFn,
    bmo_norm,
    build_ladder,
    optimizer_phi0,
    prefix_integrals,
    random_step_fn,
    random_step_values,
    transfer,
)

from test_testfn import LADDER_TABLE


def test_seminorm_stands_alone_and_owns_the_scan():
    # seminorm imports numpy and nothing of the package, so testfn can import
    # it; every scan constant and kernel step lives there, not in testfn
    src = Path(seminorm.__file__)
    imported = set()
    for node in ast.walk(ast.parse(src.read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}
    owned = {"_BLOCK", "_TILE", "_MIN_WINDOW", "_window_var", "_span_bounds", "_read_pairs", "_block_pairs"}
    used = set()
    for node in ast.walk(ast.parse((src.parent / "testfn.py").read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.add(node.name)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    assert not used & owned
    assert owned <= set(vars(seminorm))


def pair_scan_reference(t, s1, s2, wmin):
    """The pair scan as a plain double loop over one column."""
    best = 0.0
    for i in range(len(t) - 1):
        for j in range(i + 1, len(t)):
            w = t[j] - t[i]
            if w < wmin:
                continue
            mu = (s1[j] - s1[i]) / w
            v = (s2[j] - s2[i]) / w - mu * mu
            if v > best:
                best = v
    return best


def pair_scan_rows(t, s1, s2, wmin):
    """The pair scan before its block bound: one row loop over every pair.

    Row i reads every window [t_i, t_j] in one pass, with mu = (s1_j -
    s1_i)/w and v = (s2_j - s2_i)/w - mu^2, into buffers made once per
    call; only a row whose first window is shorter than wmin looks for the
    suffix of windows long enough.
    """
    n = t.size
    cols = s1.shape[1:]
    tw = t.reshape((n,) + (1,) * len(cols))
    wbuf = np.empty((n - 1,) + (1,) * len(cols))
    mbuf = np.empty((n - 1,) + cols)
    vbuf = np.empty((n - 1,) + cols)
    best = np.zeros(cols)
    for i, short in enumerate((np.diff(t) < wmin).tolist()):
        lo = i + 1
        if short:
            lo += int(np.searchsorted(t[lo:] - t[i], wmin))
            if lo == n:
                continue
        m = n - lo
        w = np.subtract(tw[lo:], t[i], out=wbuf[:m])
        mu = np.subtract(s1[lo:], s1[i], out=mbuf[:m])
        np.divide(mu, w, out=mu)
        v = np.subtract(s2[lo:], s2[i], out=vbuf[:m])
        np.divide(v, w, out=v)
        np.multiply(mu, mu, out=mu)
        np.subtract(v, mu, out=v)
        np.fmax(best, v.max(axis=0), out=best)
    return float(best) if not cols else best


def test_pair_scan_matches_the_double_loop():
    # breakpoints closer than the minimal window send rows down the suffix
    # path, and the pair next to the right end leaves a row with no window
    rng = np.random.default_rng(5)
    cuts = [0.0, 0.3, 0.5, 0.5 + 3e-10, 0.7, 1.0 - 4e-10, 1.0]
    fns = [
        PiecewiseFn([ConstPiece(a, b, v) for a, b, v in zip(cuts, cuts[1:], rng.normal(size=6))])
        for _ in range(3)
    ] + [PiecewiseFn([ConstPiece(0.0, 0.4, 1.0), LogPiece(0.4, 1.0, 0.2, -0.7, 1.0, 0.3)])]
    wmin = seminorm._MIN_WINDOW
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 33), cuts, [0.4]]))
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    want = [pair_scan_reference(t, s1[:, k], s2[:, k], wmin) for k in range(len(fns))]
    assert min(want) > 0.0
    assert seminorm._pair_scan(t, s1, s2).tolist() == want
    for k in range(len(fns)):
        # one function is one (n, 1) column
        assert seminorm._pair_scan(t, s1[:, k : k + 1], s2[:, k : k + 1]).tolist() == [want[k]]
    # the minimal window is _MIN_WINDOW of the nodes' span: stretched onto
    # [0, 8] and offset by 5e4, the two short windows, 2.4e-9 and 3.2e-9
    # wide, read rounding noise of 542 and 128, the largest true variance 0.29
    far = PiecewiseFn([ConstPiece(8 * a, 8 * b, 5e4 + v) for a, b, v in zip(cuts, cuts[1:], rng.normal(size=6))])
    s1, s2 = (s[:, None] for s in prefix_integrals(far, 8 * t))
    want = pair_scan_reference(8 * t, s1[:, 0], s2[:, 0], 8 * wmin)
    assert pair_scan_reference(8 * t, s1[:, 0], s2[:, 0], wmin) > want
    assert seminorm._pair_scan(8 * t, s1, s2).tolist() == [want]


def test_pair_scan_of_phi0_matches_the_double_loop():
    f = optimizer_phi0()
    for levels in (3, 5):
        t = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
        s1, s2 = prefix_integrals(f, t)
        want = pair_scan_reference(t, s1, s2, seminorm._MIN_WINDOW * f.length)
        assert bmo_norm(f, levels) == math.sqrt(want)


def scan_column(draw, t):
    """One column of prefix integrals at the nodes t of [0, 1]: a random step
    function, log pieces next to their singularity, or an exponential ladder,
    near-extremal everywhere, at a random scale and on a random offset."""
    kind = draw(st.sampled_from(["steps", "log", "ladder"]))
    if kind == "steps":
        cells = draw(st.integers(2, 80))
        vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=cells)
        f = testfn._step_fn(vals)
    elif kind == "ladder":
        # build_ladder's support [1/4, 3/4) of (-4, 5), moved onto [0, 1)
        n = draw(st.sampled_from([2, 3, 4, 8]))
        f = transfer(build_ladder(n, draw(st.floats(0.05, 0.5)), draw(st.integers(0, 3))),
                     (-8.5, 9.5))
    else:
        # c1 ln t on [0, 1/2) and 0.3 - c1 ln(1 - t) on [1/2, 1): singular at 0 and 1
        c1 = draw(st.floats(0.2, 2.0))
        f = PiecewiseFn([LogPiece(0.0, 0.5, 0.0, c1, 1.0, 0.0),
                         LogPiece(0.5, 1.0, 0.3, -c1, -1.0, 1.0)])
    s1, s2 = prefix_integrals(f, t)
    scale = 10.0 ** draw(st.integers(-6, 6))
    # an offset of 1e8 leaves the variances to cancellation in the prefix sums
    offset = draw(st.sampled_from([0.0, 0.0, 1e8]))
    s2 = s2 * scale * scale + 2.0 * offset * scale * s1 + offset * offset * t
    return s1 * scale + offset * t, s2


@st.composite
def scan_inputs(draw):
    """Sorted nodes on [0, 1] and (n, F) prefix integrals: n from 2 up to about
    600, some nodes closer together than the minimal window."""
    n = draw(st.sampled_from([2, 3, 9, 17, 18, 40, 129, 257, 513, 600]))
    t = np.linspace(0.0, 1.0, n)
    close = draw(st.lists(st.integers(1, n - 1), max_size=3)) if n > 2 else []
    # a node 3e-10 past node k, which is inside the minimal window of 1e-9
    t = np.unique(np.concatenate([t, t[close] - 3e-10]))
    cols = [scan_column(draw, t) for _ in range(draw(st.integers(1, 5)))]
    return t, np.column_stack([c[0] for c in cols]), np.column_stack([c[1] for c in cols])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan=scan_inputs())
def test_pair_scan_matches_the_row_loop_bit_for_bit(scan):
    t, s1, s2 = scan
    wmin = seminorm._MIN_WINDOW
    want = pair_scan_rows(t, s1, s2, wmin)
    got = seminorm._pair_scan(t, s1, s2)
    assert got.tobytes() == want.tobytes()
    for k in range(s1.shape[1]):
        one = seminorm._pair_scan(t, s1[:, k : k + 1], s2[:, k : k + 1])
        assert one.shape == (1,)
        assert one[0].hex() == pair_scan_rows(t, s1[:, k].copy(), s2[:, k].copy(), wmin).hex()


def test_pair_scan_keeps_its_rounding_slack():
    # the first two and the last two blocks lie in clusters a few ulps wide,
    # of 2b + 1 nodes each, so every window between them has the variance of
    # the outer window up to rounding, and the two steps put that window
    # near the largest variance; an offset makes the rounding larger than
    # the geometric margin of the tests, and a bound or exact test without
    # its slack prunes and misreads
    k = 2 * seminorm._BLOCK + 1
    t = np.concatenate([0.125 + np.arange(k) * 2.0**-55, np.linspace(0.3, 0.7, 8),
                        0.875 - np.arange(k)[::-1] * 2.0**-53])
    assert np.all(np.diff(t) > 0.0)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for offset in (1e2, 1e3, 1e4, 1e5, 1e6):
            vals = offset + rng.normal(size=(6, 2)) * 0.1 + [-1.0, 1.0]
            fns = [testfn._step_fn(v) for v in vals]
            s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
            got = seminorm._pair_scan(t, s1, s2)
            # the nodes span 0.75, so the scan's minimal window is 0.75 _MIN_WINDOW
            assert got.tobytes() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW * 0.75).tobytes()


def scan_nodes(f, levels):
    """The nodes and prefix integrals bmo_norm scans f at."""
    t = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
    return (t, *prefix_integrals(f, t))


def count_pairs(monkeypatch):
    """Patch seminorm._window_var to count the variances it forms; returns the running count.

    A pair read in every one of F columns counts F times, and a pair read
    in one column once, so the count is the pairs read times the columns
    they are read in.
    """
    read = []
    window_var = seminorm._window_var

    def counted(*args):
        w, v = window_var(*args)
        read.append(v.size)
        return w, v

    monkeypatch.setattr(seminorm, "_window_var", counted)
    return read


def test_block_bound_leaves_few_rows_on_short_maximisers(monkeypatch):
    # the oracle's 64-cell draws on the 2^9 grid: their best windows are
    # short, so the scan reads only a small share of the pairs of its 48
    # columns, band, seeds and block reads counted alike
    edges = np.linspace(0.0, 1.0, 65)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), edges]))
    fns = [testfn._step_fn(v) for v in random_step_values(range(48), 64, 1.0)]
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    n = t.size
    read = count_pairs(monkeypatch)
    got = seminorm._pair_scan(t, s1, s2)
    assert got.tolist() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW).tolist()
    assert sum(read) < 0.05 * len(fns) * n * (n - 1) / 2


def test_block_tests_leave_few_pairs_on_a_ladder(monkeypatch):
    # the ladder is near-extremal everywhere, so an outer-window bound
    # excludes almost no block pair; the exact test excludes most of them
    f = build_ladder(4, 0.1, 5)
    t, s1, s2 = scan_nodes(f, 6)
    n = t.size
    read = count_pairs(monkeypatch)
    got = seminorm._pair_scan(t, s1[:, None], s2[:, None])
    assert got.shape == (1,)
    assert got[0].hex() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW * f.length).hex()
    assert sum(read) < 0.15 * n * (n - 1) / 2


def test_pair_scan_gathers_the_band_of_draws_and_sweeps_that_of_a_ladder(monkeypatch):
    # the span bounds of the 48 draws leave few (span, column) units, read
    # by gather; a near-extremal ladder's leave nearly all, and its band is
    # swept one diagonal at a time, the first an (n - 1, F) array
    shapes = []
    window_var = seminorm._window_var

    def recorded(*args):
        w, v = window_var(*args)
        shapes.append(v.shape)
        return w, v

    monkeypatch.setattr(seminorm, "_window_var", recorded)
    edges = np.linspace(0.0, 1.0, 65)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), edges]))
    fns = [testfn._step_fn(v) for v in random_step_values(range(48), 64, 1.0)]
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    shapes.clear()
    assert seminorm._pair_scan(t, s1, s2).tobytes() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW).tobytes()
    assert (t.size - 1, 48) not in shapes
    f = build_ladder(4, 0.1, 5)
    t, s1, s2 = scan_nodes(f, 6)
    shapes.clear()
    got = seminorm._pair_scan(t, s1[:, None], s2[:, None])
    assert got[0].hex() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW * f.length).hex()
    assert (t.size - 1, 1) in shapes


def span_columns(t):
    """(n, F) prefix integrals at the nodes t of [0, 1]: two-valued (+-1) and
    normal steps on 7 and 64 cells, phi0 and a ladder moved onto [0, 1)."""
    rng = np.random.default_rng(3)
    fns = [testfn._step_fn(rng.choice([-1.0, 1.0], size=cells)) for cells in (7, 64)]
    fns += [testfn._step_fn(rng.normal(size=cells)) for cells in (7, 64)]
    fns += [transfer(optimizer_phi0(), (0.0, 1.0)), transfer(build_ladder(4, 0.1, 3), (-8.5, 9.5))]
    return np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)


def test_span_bounds_cover_every_window_of_their_span():
    # span k holds the nodes kb to kb + 2b; its bound must reach every
    # variance _window_var forms inside it, rounding included, which an
    # offset makes large next to the spread of the values
    b = seminorm._BLOCK
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), np.linspace(0.0, 1.0, 8)]))
    n = t.size
    s1, s2 = span_columns(t)
    for offset in (0.0, 1e2, 1e4, 1e6, 1e7):
        m1 = s1 + offset * t[:, None]
        m2 = s2 + 2.0 * offset * s1 + offset * offset * t[:, None]
        bound = seminorm._span_bounds(t, m1, m2)
        assert bound.shape == (-(-(n - 1) // b), s1.shape[1])
        for k in range(bound.shape[0]):
            i, j = np.triu_indices(min(2 * b, n - 1 - k * b) + 1, 1)
            i, j = i + k * b, j + k * b
            _, v = seminorm._window_var(t[j, None], t[i, None], m1[j], m1[i], m2[j], m2[i])
            assert (v <= bound[k]).all()


def test_pair_scan_memory_stays_small():
    # peak traced memory of a 16,041-node scan and of 256 draws in scans of
    # _TILE // 512 columns; the scan's band, groups, test chunks and reads
    # are bounded by _TILE or by n, and its tables by n F, so neither peak
    # grows with the number of block pairs
    f = build_ladder(4, 0.1, 6)
    peaks = []
    for call in (lambda: bmo_norm(f, 10), lambda: random_step_values(range(256), 64, 1.0)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4e6
    assert peaks[1] < 6e6


@pytest.mark.parametrize("tile", [seminorm._TILE, 1024])
def test_pair_scan_reads_the_table_ladders_and_phi0_bit_for_bit(monkeypatch, tile):
    # build_ladder's table at levels 6 and phi0 at levels 12, as bmo_norm
    # scans them, in the scan's own batches and in batches of 1,024 values:
    # 14 to 67 row groups of block tests per ladder, chunks of 64 exact
    # tests and reads of 3 block pairs; all but the (8, 0.3, 3) ladder end
    # in a short block
    monkeypatch.setattr(seminorm, "_TILE", tile)
    short = []
    for f, levels in [(build_ladder(*row), 6) for row in LADDER_TABLE] + [(optimizer_phi0(), 12)]:
        t, s1, s2 = scan_nodes(f, levels)
        short.append((t.size - 1) % seminorm._BLOCK != 0)
        got = seminorm._pair_scan(t, s1[:, None], s2[:, None])
        assert got.shape == (1,)
        assert got[0].hex() == pair_scan_rows(t, s1, s2, seminorm._MIN_WINDOW * f.length).hex()
    assert short == [True] * 6 + [False, False]


def test_random_step_values_match_single_draws(monkeypatch):
    # 100 seeds are a full scan of 64 draws and a part at 64 cells; at 48
    # cells, which does not divide the 2^9 grid, the 545 nodes take 30 draws
    # per scan at _TILE = 2^14, three full scans and a part
    for cells, eps, tile in ((64, 1.0, seminorm._TILE), (48, 0.37, 2 ** 14)):
        monkeypatch.setattr(seminorm, "_TILE", tile)
        seeds = list(range(1000, 1100))
        batch = random_step_values(seeds, cells, eps)
        assert batch.shape == (len(seeds), cells)
        for s, vals in zip(seeds, batch):
            assert vals.tolist() == [pc.v for pc in random_step_fn(s, cells, eps).pieces]


def test_random_step_values_match_the_per_draw_route(monkeypatch):
    # the route the prefix sums replaced: one step function per draw
    # through prefix_integrals, then the row-loop scan and the rescale
    def per_draw(seed, cells, eps):
        rng = np.random.Generator(np.random.Philox(seed))
        raw = rng.normal(0.0, 1.0, cells)
        while not np.ptp(raw) > 0:
            raw = rng.normal(0.0, 1.0, cells)
        edges = np.linspace(0.0, 1.0, cells + 1)
        grid = np.linspace(0.0, 1.0, 2 ** testfn._GEN_LEVELS + 1)
        nodes = np.unique(np.concatenate([grid, edges]))
        s1, s2 = prefix_integrals(testfn._step_fn(raw), nodes)
        best = pair_scan_rows(nodes, s1, s2, seminorm._MIN_WINDOW)
        return (raw * (eps / math.sqrt(max(best, 0.0)))).tolist()

    seeds = list(range(40))
    for cells in (2, 3, 7, 48, 64):
        got = random_step_values(seeds, cells, 0.9)
        assert got.tolist() == [per_draw(s, cells, 0.9) for s in seeds]
    # 70 draws at 30 per scan: two full scans and a partial one
    monkeypatch.setattr(seminorm, "_TILE", 2 ** 14)
    seeds = list(range(500, 570))
    got = random_step_values(seeds, 48, 1.0)
    assert got.tolist() == [per_draw(s, 48, 1.0) for s in seeds]
