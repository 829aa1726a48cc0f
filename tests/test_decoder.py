"""Decoding: map inversion, back-projection, clustering, ensemble merging."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csdetect import decoder, recovery
from csdetect.core import AnnotationSet, DetectionResult, ImageGrid
from csdetect.decoder import (
    DecodeParams,
    backproject_axis,
    decode_scheme1,
    decode_scheme2,
    filter_noise_candidates,
    meanshift_cluster,
    merge_ensemble,
)
from csdetect.encoder import (
    axis_signals,
    build_axis_layout,
    encode_scheme1,
    encode_scheme2,
    flatten_annotations,
)
from csdetect.predictor import oracle_predict
from csdetect.recovery import RecoveryParams, bp_recover, bp_recover_rows, omp_recover, omp_recover_rows
from csdetect.sensing import make_sensing_matrix

# one horizontal axis under a 3x4 grid (diagonal 5, so 5 bins) with origin
# (-1, -0.5), direction (1, 0) and normal (-0.0, 1): every vote is exact
ONE_AXIS = build_axis_layout(ImageGrid(3, 4), 1, margin=0.5)


def _random_cells(grid, k, min_sep, rng, pad=1.0):
    cells = []
    while len(cells) < k:
        c = (rng.uniform(1 + pad, grid.width - pad), rng.uniform(1 + pad, grid.height - pad))
        if all((c[0] - x) ** 2 + (c[1] - y) ** 2 >= min_sep**2 for x, y in cells):
            cells.append(c)
    return AnnotationSet(grid=grid, cells=tuple(cells))


def test_decode_scheme1_threshold_above_max_is_empty():
    grid = ImageGrid(4, 4)
    sig = np.zeros(16)
    sig[5 - 1] = 0.8
    assert len(decode_scheme1(sig, grid, threshold=0.9)) == 0


def test_decode_scheme1_inverts_the_index_rule():
    grid = ImageGrid(4, 4)
    ann = AnnotationSet(grid=grid, cells=((2.0, 3.0), (4.0, 1.0)))
    detected = decode_scheme1(flatten_annotations(ann), grid, threshold=0.5)
    assert sorted(map(tuple, detected.coords().tolist())) == sorted(ann.cells)


def test_decode_scheme1_round_trip_through_both_solvers():
    grid = ImageGrid(16, 16)
    rng = np.random.default_rng(0)
    ann = _random_cells(grid, 4, min_sep=3.0, rng=rng)
    phi = make_sensing_matrix(89, 256, seed=1)  # ceil(4 k ln N) rows for k = 4, N = 256
    y = encode_scheme1(ann, phi)
    truth = sorted((round(x), round(y_)) for x, y_ in ann.cells)
    for solver in (omp_recover, bp_recover):
        f_hat = solver(y[0], phi)
        detected = decode_scheme1(f_hat, grid, threshold=0.0)
        assert sorted(map(tuple, detected.coords().tolist())) == truth


def test_decode_scheme1_rejects_length_mismatch():
    sig = np.zeros(10)
    sig[0] = 1.0
    with pytest.raises(ValueError):
        decode_scheme1(sig, ImageGrid(4, 4), threshold=0.5)


def test_backproject_axis_aligned_entry():
    assert ONE_AXIS.geometry.tolist() == [[-1.0, -0.5, 1.0, 0.0, -0.0, 1.0]]
    sig = np.zeros(5)
    sig[3 - 1] = 4.0
    votes = backproject_axis(sig, ONE_AXIS, 0)
    assert votes.shape == (1, 3)
    assert (votes[0, 0], votes[0, 1]) == (2.0, 3.5)
    assert votes[0, 2] == 4.0  # magnitude |d|


def test_backproject_zero_signal():
    assert backproject_axis(np.zeros(5), ONE_AXIS, 0).shape == (0, 3)


def test_backproject_round_trip_within_bin_rounding():
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 8)
    cell = (13.37, 7.91)
    signals = axis_signals(AnnotationSet(grid=grid, cells=(cell,)), layout)
    for i, sig in enumerate(signals):
        votes = backproject_axis(sig, layout, i)
        assert len(votes) == 1
        err = np.hypot(votes[0, 0] - cell[0], votes[0, 1] - cell[1])
        assert err <= 0.5  # the bin index is the only rounded quantity


def test_backproject_matches_one_vote_at_a_time():
    grid = ImageGrid(60, 60)
    layout = build_axis_layout(grid, 7)
    rng = np.random.default_rng(11)
    for i, (ox, oy, dx, dy, nx, ny) in enumerate(layout.geometry.tolist()):
        indices = np.sort(rng.choice(layout.bin_count, size=9, replace=False)) + 1
        values = rng.normal(0.0, 20.0, size=9)
        sig = np.zeros(layout.bin_count)
        sig[indices - 1] = values
        votes = backproject_axis(sig, layout, i)
        expected = [
            [ox + int(r) * dx + float(d) * nx, oy + int(r) * dy + float(d) * ny, abs(float(d))]
            for r, d in zip(indices, values)
        ]
        assert votes.tolist() == expected


def test_backproject_validation():
    short = np.zeros(4)
    short[3 - 1] = 4.0
    with pytest.raises(ValueError, match="bin count"):
        backproject_axis(short, ONE_AXIS, 0)
    for i in (-1, 1):
        with pytest.raises(ValueError, match="outside a layout of 1 axes"):
            backproject_axis(np.zeros(5), ONE_AXIS, i)
    far = build_axis_layout(ImageGrid(3, 4), 1, margin=1e308)  # origin y = 2.5 - (2.5 + 1e308)
    huge = np.zeros(5)
    huge[2 - 1] = -1.7e308
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        backproject_axis(huge, far, 0)


def _votes(rows):
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def test_filter_noise_candidates():
    grid = ImageGrid(100, 100)
    near_axis = (50.0, 50.0, 0.01)
    good = (50.0, 50.0, 20.0)
    outside = (150.0, 50.0, 20.0)
    kept = filter_noise_candidates(_votes([near_axis, good, outside]), grid, noise_margin=13.0)
    assert kept.tolist() == [list(good)]


def test_filter_noise_candidates_bounds_are_inclusive():
    grid = ImageGrid(100, 80)
    margin = 13.0
    low, right, top = 1.0 - margin, 100 + margin, 80 + margin
    inside = [
        (50.0, 40.0, margin),  # magnitude exactly at the margin
        (low, 40.0, 20.0),
        (right, 40.0, 20.0),
        (50.0, low, 20.0),
        (50.0, top, 20.0),
        (low, low, 20.0),
        (right, top, 20.0),
    ]
    outside = [
        (50.0, 40.0, np.nextafter(margin, 0.0)),
        (np.nextafter(low, -np.inf), 40.0, 20.0),
        (np.nextafter(right, np.inf), 40.0, 20.0),
        (50.0, np.nextafter(low, -np.inf), 20.0),
        (50.0, np.nextafter(top, np.inf), 20.0),
    ]
    kept = filter_noise_candidates(_votes(outside[:2] + inside + outside[2:]), grid, margin)
    assert kept.tolist() == [list(row) for row in inside]
    assert filter_noise_candidates(_votes([]), grid, margin).shape == (0, 3)


def test_filter_keeps_everything_on_clean_round_trip():
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 8)
    rng = np.random.default_rng(1)
    ann = _random_cells(grid, 3, min_sep=5.0, rng=rng)
    candidates = np.concatenate(
        [backproject_axis(sig, layout, i) for i, sig in enumerate(axis_signals(ann, layout))]
    )
    kept = filter_noise_candidates(candidates, grid, layout.margin)
    # bin conflicts can merge votes at encode time, but the noise filter
    # itself must pass every clean vote through
    assert np.array_equal(kept, candidates)


def test_meanshift_identical_points():
    pts = _votes([(5.0, 7.0, 1.0)] * 6)
    clusters = meanshift_cluster(pts, bandwidth=2.0)
    assert clusters == [((5.0, 7.0), 6)]


def test_meanshift_single_point():
    clusters = meanshift_cluster(_votes([(1.0, 2.0, 1.0)]), bandwidth=2.0)
    assert clusters == [((1.0, 2.0), 1)]


def test_meanshift_two_far_groups():
    rng = np.random.default_rng(2)
    bw = 1.5
    a = np.array([10.0, 10.0])
    b = a + 10 * bw
    cands = _votes([
        (c[0] + rng.uniform(-0.4, 0.4), c[1] + rng.uniform(-0.4, 0.4), 1.0)
        for c in [a] * 5 + [b] * 7
    ])
    clusters = sorted(meanshift_cluster(cands, bandwidth=bw), key=lambda c: c[0][0])
    assert [c[1] for c in clusters] == [5, 7]
    got_a = np.array(clusters[0][0])
    got_b = np.array(clusters[1][0])
    want_a = cands[:5, :2].mean(axis=0)
    want_b = cands[5:, :2].mean(axis=0)
    assert np.allclose(got_a, want_a, atol=1e-3)
    assert np.allclose(got_b, want_b, atol=1e-3)


def test_meanshift_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        meanshift_cluster(_votes([]), bandwidth=0.0)


def _meanshift_one_at_a_time(candidates, bandwidth):
    """Reference: shift one candidate at a time to convergence, then assign
    each mode in order to the first cluster centre within bandwidth/2."""
    if not len(candidates):
        return []
    pts = np.array(candidates[:, :2], dtype=np.float64)
    modes = pts.copy()
    bw2 = bandwidth * bandwidth
    for i in range(len(pts)):
        p = modes[i]
        for _ in range(100):
            d2 = np.sum((pts - p) ** 2, axis=1)
            shifted = pts[d2 <= bw2].mean(axis=0)
            if np.hypot(*(shifted - p)) < 1e-3:
                p = shifted
                break
            p = shifted
        modes[i] = p

    merge2 = (0.5 * bandwidth) ** 2
    centers = []
    members = []
    for i in range(len(pts)):
        for c, center in enumerate(centers):
            if np.sum((modes[i] - center) ** 2) <= merge2:
                members[c].append(i)
                break
        else:
            centers.append(modes[i])
            members.append([i])
    return [
        ((float(pts[idx, 0].mean()), float(pts[idx, 1].mean())), len(idx))
        for idx in (np.array(m) for m in members)
    ]


def _candidates(xy):
    return _votes([(float(x), float(y), 1.0) for x, y in xy])


def _assert_same_clusters(xy, bandwidth):
    cands = _candidates(xy)
    assert meanshift_cluster(cands, bandwidth) == _meanshift_one_at_a_time(cands, bandwidth)


@pytest.mark.parametrize("seed", range(6))
def test_meanshift_matches_one_at_a_time_on_random_sets(seed):
    # decode-like pools: tight groups of votes, scattered noise votes
    rng = np.random.default_rng(seed)
    centres = rng.uniform(20, 240, size=(int(rng.integers(1, 15)), 2))
    groups = [c + rng.normal(0, 1.5, size=(int(rng.integers(3, 30)), 2)) for c in centres]
    noise = rng.uniform(0, 260, size=(int(rng.integers(0, 80)), 2))
    xy = rng.permutation(np.vstack(groups + [noise]))
    for bandwidth in (1.0, 4.6, 9.19, 25.0):
        _assert_same_clusters(xy, bandwidth)


def test_meanshift_matches_one_at_a_time_on_duplicates():
    rng = np.random.default_rng(7)
    base = rng.uniform(0, 30, size=(6, 2))
    xy = base[rng.integers(0, len(base), size=60)]
    _assert_same_clusters(xy, 3.0)
    _assert_same_clusters(np.repeat(base, 9, axis=0), 40.0)
    _assert_same_clusters(np.zeros((12, 2)), 0.5)


def test_meanshift_matches_one_at_a_time_at_bandwidth_spacing():
    # lattice points exactly one bandwidth apart sit on the kernel edge
    bandwidth = 4.0
    xs, ys = np.meshgrid(np.arange(6) * bandwidth, np.arange(4) * bandwidth)
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    _assert_same_clusters(lattice, bandwidth)
    _assert_same_clusters(lattice[::-1], bandwidth)
    _assert_same_clusters(np.column_stack([np.arange(9) * bandwidth, np.zeros(9)]), bandwidth)


def test_meanshift_modes_half_a_bandwidth_apart():
    # votes at -4, 0, 4 with bandwidth 4 converge to modes -2, 0, 2: the
    # middle mode lies exactly bandwidth/2 from both neighbors, joins the
    # first cluster, and the third mode (4 from that founder) starts its own
    bandwidth = 4.0
    triple = [(-4.0, 0.0), (0.0, 0.0), (4.0, 0.0)]
    assert meanshift_cluster(_candidates(triple), bandwidth) == [
        ((-2.0, 0.0), 2), ((4.0, 0.0), 1)
    ]
    _assert_same_clusters(triple, bandwidth)
    _assert_same_clusters(triple[::-1], bandwidth)
    shifted = [(x + dx, y + dy) for dx, dy in ((0, 0), (40, 0), (0, 40)) for x, y in triple]
    _assert_same_clusters(shifted, bandwidth)
    _assert_same_clusters(np.random.default_rng(3).permutation(shifted), bandwidth)


_coordinate = st.one_of(
    st.integers(0, 12).map(float),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    xy=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
    bandwidth=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.1, 30.0)),
)
def test_meanshift_matches_one_at_a_time_property(xy, bandwidth):
    _assert_same_clusters(xy, bandwidth)


CHUNK = decoder._SHIFT_CHUNK
_SHIFT = decoder._shift


def _assert_same_clusters_in_chunks(xy, bandwidth, monkeypatch):
    """_assert_same_clusters, checking that the first mean-shift step cut the
    trajectories into len(xy) // CHUNK chunks and that every step against a
    window of the votes is bit-identical to the step against all of them."""
    pts = _candidates(xy)[:, :2]
    calls = []

    def spy(window, p, bw2):
        calls.append((len(window), len(p)))
        shifted = _SHIFT(window, p, bw2)
        assert np.array_equal(shifted, _SHIFT(pts, p, bw2), equal_nan=True)
        return shifted

    monkeypatch.setattr(decoder, "_shift", spy)
    _assert_same_clusters(xy, bandwidth)
    chunks = len(xy) // CHUNK
    assert chunks >= 2
    assert sum(k for _, k in calls[:chunks]) == len(xy)
    return calls[:chunks]


@pytest.mark.parametrize("n", [150, 3 * CHUNK, 329, 450, 600])
def test_meanshift_in_chunks_matches_one_at_a_time_on_decode_like_sets(n, monkeypatch):
    # the oracle-bp operating point: 27 votes per cell around 5-20 cells in
    # a 260-px patch, the rest scattered, bandwidth 9.19
    rng = np.random.default_rng(n)
    cells = rng.uniform(15, 245, size=(int(rng.integers(5, 21)), 2))
    near = cells[rng.integers(0, len(cells), size=n - n // 4)] + rng.normal(0, 1.5, size=(n - n // 4, 2))
    xy = rng.permutation(np.vstack([near, rng.uniform(-13, 273, size=(n // 4, 2))]))
    first = _assert_same_clusters_in_chunks(xy, 9.19238815542512, monkeypatch)
    assert min(w for w, _ in first) < n  # a window left votes out


@pytest.mark.parametrize("bandwidth", [4.0, 0.5, 9.19238815542512, 0.1])
def test_meanshift_in_chunks_matches_one_at_a_time_on_a_bandwidth_lattice(bandwidth, monkeypatch):
    # every neighbor sits on the kernel edge, and for the inexact spacings
    # rounding puts some just inside and some just outside it
    xs, ys = np.meshgrid(np.arange(16) * bandwidth, np.arange(14) * bandwidth)
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    assert len(lattice) >= 3 * CHUNK
    _assert_same_clusters_in_chunks(lattice, bandwidth, monkeypatch)
    _assert_same_clusters_in_chunks(lattice[::-1], bandwidth, monkeypatch)
    _assert_same_clusters_in_chunks(np.random.default_rng(1).permutation(lattice), bandwidth, monkeypatch)


def test_meanshift_in_chunks_matches_one_at_a_time_on_duplicates_across_chunk_edges(monkeypatch):
    rng = np.random.default_rng(11)
    # runs of 7 equal votes: sorted by x, the cuts between the chunks fall
    # inside runs, so equal trajectories sit in different chunks
    base = rng.uniform(0, 120, size=(31, 2))
    runs = np.repeat(base, 7, axis=0)
    chunks = len(runs) // CHUNK
    assert chunks >= 3 and all(len(runs) * i // chunks % 7 for i in range(1, chunks))
    _assert_same_clusters_in_chunks(runs, 3.0, monkeypatch)
    _assert_same_clusters_in_chunks(rng.permutation(runs), 3.0, monkeypatch)
    # equal x everywhere: every chunk has the same x-extent
    column = np.column_stack([np.full(3 * CHUNK + 5, 5.0), rng.integers(0, 40, size=3 * CHUNK + 5)])
    _assert_same_clusters_in_chunks(column, 2.0, monkeypatch)
    _assert_same_clusters_in_chunks(np.zeros((3 * CHUNK, 2)), 0.5, monkeypatch)


def test_meanshift_in_chunks_keeps_a_neighbor_that_rounding_puts_on_the_kernel_edge(monkeypatch):
    # b lies below a - bandwidth as computed in floats, yet the kernel
    # rounds its distance to a down to the bandwidth and counts it; a
    # window cut at exactly a - bandwidth would drop it
    bandwidth, a, b = 9.19238815542512, 9.988764849941848, 0.7963766945167289
    assert b < a - bandwidth and (a - b) ** 2 <= bandwidth * bandwidth
    left = [(b - 100.0 - i, 0.0) for i in range(CHUNK - 1)]
    right = [(a + 100.0 + i, 0.0) for i in range(CHUNK - 1)]
    xy = left + [(b, 0.0), (a, 0.0)] + right
    _assert_same_clusters_in_chunks(xy, bandwidth, monkeypatch)
    assert ((0.5 * (a + b), 0.0), 2) in meanshift_cluster(_candidates(xy), bandwidth)


def test_meanshift_in_chunks_steps_nan_modes_as_against_all_votes(monkeypatch):
    # A mode with no neighbor is NaN and stays active. Turn the first step
    # of a third of the trajectories NaN (more than a chunk's worth, so one
    # later chunk is all NaN) and run the windowed and the all-votes step
    # side by side: every windowed step must equal the all-votes step.
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 200, size=(5 * CHUNK, 2))
    lost = {tuple(v) for v in pts[::3]}
    windows = []

    def spy(window, p, bw2):
        windows.append(len(window))
        shifted = _SHIFT(window, p, bw2)
        assert np.array_equal(shifted, _SHIFT(pts, p, bw2), equal_nan=True)
        shifted[[tuple(v) in lost for v in p]] = np.nan
        return shifted

    monkeypatch.setattr(decoder, "_shift", spy)
    with np.errstate(invalid="ignore"):
        got = meanshift_cluster(_candidates(pts), 9.19238815542512)
        monkeypatch.setattr(decoder, "_SHIFT_CHUNK", len(pts))
        assert meanshift_cluster(_candidates(pts), 9.19238815542512) == got
    assert 0 in windows  # an all-NaN chunk


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    xy=st.lists(st.tuples(_coordinate, _coordinate), min_size=2 * CHUNK, max_size=3 * CHUNK + 20),
    bandwidth=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.1, 30.0)),
)
def test_meanshift_in_chunks_matches_one_at_a_time_property(xy, bandwidth):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_clusters_in_chunks(xy, bandwidth, monkeypatch)


def test_meanshift_rejects_non_finite_candidates():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            meanshift_cluster(_candidates([(1.0, 2.0), (3.0, bad)]), bandwidth=2.0)


def test_decode_params_resolution():
    layout = build_axis_layout(ImageGrid(24, 24), 8)
    params = DecodeParams().resolved(layout)
    assert params.noise_margin == pytest.approx(layout.margin)
    assert params.bandwidth == pytest.approx(0.5 * layout.margin)
    assert params.min_support == 4
    with pytest.raises(ValueError):
        DecodeParams(min_support=9).resolved(layout)


def test_decode_scheme2_zero_signal_is_empty():
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 4)
    phi = make_sensing_matrix(12, layout.bin_count, seed=3)
    y = encode_scheme2(AnnotationSet(grid=grid), layout, phi)
    assert len(decode_scheme2(y, layout, phi)) == 0


def test_decode_scheme2_noiseless_operating_point():
    grid = ImageGrid(260, 260)
    layout = build_axis_layout(grid, 27)
    phi = make_sensing_matrix(112, layout.bin_count, seed=4)
    rng = np.random.default_rng(5)
    ann = _random_cells(grid, 5, min_sep=24.0, rng=rng, pad=8.0)
    y = encode_scheme2(ann, layout, phi)
    detected = decode_scheme2(y, layout, phi)
    assert len(detected) == 5
    truth = ann.coords()
    for x, y, _ in detected.points:
        assert np.min(np.hypot(truth[:, 0] - x, truth[:, 1] - y)) < 1.0


def test_decode_scheme2_noisy_f1(capsys):
    grid = ImageGrid(260, 260)
    layout = build_axis_layout(grid, 27)
    phi = make_sensing_matrix(112, layout.bin_count, seed=4)
    recovery = RecoveryParams(noise_budget_frac=0.1)
    tp = fp = fn = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        ann = _random_cells(grid, int(rng.integers(5, 21)), min_sep=24.0, rng=rng, pad=8.0)
        y = encode_scheme2(ann, layout, phi)
        y_hat = oracle_predict(y, sigma_rel=0.05, seed=seed)
        detected = decode_scheme2(y_hat, layout, phi, recovery=recovery)
        truth = ann.coords()
        used = np.zeros(len(truth), dtype=bool)
        for x, y, _ in detected.points:
            d = np.hypot(truth[:, 0] - x, truth[:, 1] - y)
            d[used] = np.inf
            j = int(np.argmin(d))
            if d[j] < 6.0:
                used[j] = True
                tp += 1
            else:
                fp += 1
        fn += int((~used).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.9


def test_decode_scheme2_diagnostics_and_validation():
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 4)
    phi = make_sensing_matrix(12, layout.bin_count, seed=3)
    ann = AnnotationSet(grid=grid, cells=((12.0, 12.0),))
    y = encode_scheme2(ann, layout, phi)
    diag = {}
    decode_scheme2(y, layout, phi, diagnostics=diag)
    assert set(diag) == {"signals", "iterations", "converged", "votes", "vote_axes"}
    assert diag["signals"].shape == (4, layout.bin_count)
    assert diag["iterations"].shape == diag["converged"].shape == (4,)
    assert diag["iterations"].dtype.kind == "i"
    assert diag["converged"].dtype == bool
    assert diag["votes"].shape == (diag["vote_axes"].size, 3)
    assert diag["vote_axes"].dtype.kind == "i"

    wrong = encode_scheme2(ann, build_axis_layout(grid, 5), make_sensing_matrix(12, layout.bin_count, seed=3))
    with pytest.raises(ValueError):
        decode_scheme2(wrong, layout, phi)


def _assert_votes_are_one_axis_backprojection(diag, i, layout):
    # the one-pass back-projection of all axes gives each axis the votes,
    # to the bit, that back-projecting its own signal alone gives
    alone = backproject_axis(diag["signals"][i], layout, i)
    votes = diag["votes"][diag["vote_axes"] == i]
    assert votes.shape == alone.shape
    assert votes.tobytes() == alone.tobytes()


def _assert_votes_in_axis_order(diag, count):
    assert diag["signals"].shape[0] == count
    assert np.all(np.diff(diag["vote_axes"]) >= 0)


def test_decode_scheme2_bp_axes_match_one_axis_solves():
    grid = ImageGrid(260, 260)
    layout = build_axis_layout(grid, 27)
    phi = make_sensing_matrix(112, layout.bin_count, seed=4)
    recovery = RecoveryParams(noise_budget_frac=0.1)
    rng = np.random.default_rng(7)
    ann = _random_cells(grid, 12, min_sep=24.0, rng=rng, pad=8.0)
    y_hat = oracle_predict(encode_scheme2(ann, layout, phi), sigma_rel=0.05, seed=7)
    diag = {}
    decode_scheme2(y_hat, layout, phi, recovery=recovery, diagnostics=diag)
    _assert_votes_in_axis_order(diag, 27)
    for i, (block, signal) in enumerate(zip(y_hat, diag["signals"], strict=True)):
        (row,), iterations, converged = bp_recover_rows(block[None], phi, recovery)
        assert np.array_equal(row, bp_recover(block, phi, recovery))
        assert np.array_equal(np.flatnonzero(signal), np.flatnonzero(row))
        np.testing.assert_allclose(signal, row, rtol=1e-12, atol=0.0)
        assert diag["iterations"][i] == iterations[0]
        assert diag["converged"][i] == converged[0]
        _assert_votes_are_one_axis_backprojection(diag, i, layout)


def test_decode_scheme2_omp_axes_match_one_axis_solves():
    grid = ImageGrid(130, 130)
    layout = build_axis_layout(grid, 27)
    phi = make_sensing_matrix(112, layout.bin_count, seed=4)
    recovery = RecoveryParams(solver="omp", max_sparsity=10, noise_budget_frac=0.1)
    rng = np.random.default_rng(8)
    ann = _random_cells(grid, 9, min_sep=24.0, rng=rng, pad=8.0)
    y_hat = oracle_predict(encode_scheme2(ann, layout, phi), sigma_rel=0.05, seed=8)
    diag = {}
    decode_scheme2(y_hat, layout, phi, recovery=recovery, diagnostics=diag)
    _assert_votes_in_axis_order(diag, 27)
    for i, (block, signal) in enumerate(zip(y_hat, diag["signals"], strict=True)):
        (row,), iterations, converged = omp_recover_rows(block[None], phi, recovery)
        assert np.array_equal(row, omp_recover(block, phi, recovery))
        assert np.array_equal(np.flatnonzero(signal), np.flatnonzero(row))
        np.testing.assert_allclose(signal, row, rtol=1e-12, atol=0.0)
        assert diag["iterations"][i] == iterations[0]
        assert diag["converged"][i] == converged[0]
        _assert_votes_are_one_axis_backprojection(diag, i, layout)


@pytest.mark.parametrize("solver", ["bp", "omp"])
def test_decode_scheme2_rejects_non_finite_before_any_solve(monkeypatch, solver):
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 6)
    phi = make_sensing_matrix(12, layout.bin_count, seed=3)
    values = np.full(6 * 12, 0.1)
    values[2 * 12 + 3] = np.nan
    values[5 * 12] = -np.inf
    y_hat = values.reshape(6, 12)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran on a non-finite prediction")

    monkeypatch.setattr(recovery, "bp_recover_rows", no_solve)
    monkeypatch.setattr(recovery, "omp_recover_rows", no_solve)
    with pytest.raises(ValueError, match="^non-finite prediction on axes 3,6$"):
        decode_scheme2(y_hat, layout, phi, recovery=RecoveryParams(solver=solver))


@pytest.mark.parametrize("solver", ["bp", "omp"])
def test_decode_scheme2_rejects_non_finite_solver_output(monkeypatch, solver):
    grid = ImageGrid(24, 24)
    layout = build_axis_layout(grid, 6)
    phi = make_sensing_matrix(12, layout.bin_count, seed=3)
    y_hat = np.full((6, 12), 0.1)

    def nan_solve(ys, *args, **kwargs):
        x = np.zeros((len(ys), phi.cols))
        x[2, 5] = np.nan
        return x, np.ones(len(ys), dtype=np.int64), np.ones(len(ys), dtype=bool)

    monkeypatch.setattr(recovery, f"{solver}_recover_rows", nan_solve)
    with pytest.raises(ValueError, match="candidate coordinates must be finite"):
        decode_scheme2(y_hat, layout, phi, recovery=RecoveryParams(solver=solver))


def test_merge_ensemble_below_count_is_discarded():
    sets = [DetectionResult(points=((40.0, 40.0, 1),)) for _ in range(5)]
    assert len(merge_ensemble(sets, merge_radius=9.0, merge_min_count=6)) == 0


def test_merge_ensemble_two_far_groups():
    rng = np.random.default_rng(7)
    a, b = (40.0, 40.0), (90.0, 40.0)
    sets = []
    for _ in range(6):
        jitter = rng.uniform(-1, 1, size=4)
        sets.append(DetectionResult(points=(
            (a[0] + jitter[0], a[1] + jitter[1], 1),
            (b[0] + jitter[2], b[1] + jitter[3], 1),
        )))
    merged = merge_ensemble(sets, merge_radius=9.0, merge_min_count=6)
    assert len(merged) == 2
    xs = sorted(merged.points[:, 0])
    assert abs(xs[0] - a[0]) < 1.5 and abs(xs[1] - b[0]) < 1.5
    assert (merged.points[:, 2] == 6).all()


def test_merge_ensemble_is_order_invariant():
    rng = np.random.default_rng(8)
    sets = [
        DetectionResult(points=tuple(
            (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 1)
            for _ in range(rng.integers(1, 5))
        ))
        for _ in range(10)
    ]
    forward = merge_ensemble(sets, merge_radius=12.0, merge_min_count=3)
    backward = merge_ensemble(sets[::-1], merge_radius=12.0, merge_min_count=3)
    assert np.array_equal(forward.points, backward.points)
