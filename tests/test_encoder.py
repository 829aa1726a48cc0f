"""Both encoding routes: map flattening and observation-axis projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdetect.core import AnnotationSet, ImageGrid, round_half_up
from csdetect.encoder import (
    AxisLayout,
    _axis_signals,
    _project_cells,
    axis_signals,
    build_axis_layout,
    default_margin,
    encode_scheme1,
    encode_scheme2,
    flatten_annotations,
)
from csdetect.sensing import make_sensing_matrix


def test_default_margin_is_five_percent_of_diagonal():
    grid = ImageGrid(30, 40)
    assert default_margin(grid) == pytest.approx(0.05 * 50.0)


def test_flatten_identity_cell():
    grid = ImageGrid(4, 4)
    sig = flatten_annotations(AnnotationSet(grid=grid, cells=((1.0, 1.0),)))
    assert sig.shape == (16,)
    assert np.flatnonzero(sig).tolist() == [0]
    assert sig[0] == 1.0


def test_flatten_empty_is_zero_signal():
    sig = flatten_annotations(AnnotationSet(grid=ImageGrid(4, 4)))
    assert np.array_equal(sig, np.zeros(16))


def test_flatten_index_rule():
    grid = ImageGrid(4, 4)
    # index = x + h(y-1): (2, 3) -> 2 + 4*2 = 10
    sig = flatten_annotations(AnnotationSet(grid=grid, cells=((2.0, 3.0),)))
    assert np.flatnonzero(sig).tolist() == [10 - 1]


def test_flatten_collapses_coincident_pixels():
    grid = ImageGrid(8, 8)
    ann = AnnotationSet(grid=grid, cells=((3.1, 3.1), (3.2, 2.9), (6.0, 6.0)))
    sig = flatten_annotations(ann)
    assert np.flatnonzero(sig).tolist() == [3 + 8 * 2 - 1, 6 + 8 * 5 - 1]
    assert sig.sum() == 2.0


def test_flatten_rejects_out_of_range_index():
    # on a tall grid the x + h(y-1) rule can exceed w*h
    grid = ImageGrid(2, 4)
    with pytest.raises(ValueError, match="square"):
        flatten_annotations(AnnotationSet(grid=grid, cells=((2.0, 4.0),)))


def test_scheme1_zero_and_linearity():
    grid = ImageGrid(8, 8)
    phi = make_sensing_matrix(20, 64, seed=1)
    zero = encode_scheme1(AnnotationSet(grid=grid), phi)
    assert np.array_equal(zero, np.zeros((1, 20)))

    a = AnnotationSet(grid=grid, cells=((2.0, 2.0), (7.0, 3.0)))
    b = AnnotationSet(grid=grid, cells=((4.0, 6.0), (1.0, 8.0)))
    both = AnnotationSet(grid=grid, cells=a.cells + b.cells)
    lhs = encode_scheme1(both, phi)
    rhs = encode_scheme1(a, phi) + encode_scheme1(b, phi)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_scheme1_rejects_matrix_mismatch():
    phi = make_sensing_matrix(20, 64, seed=1)
    with pytest.raises(ValueError):
        encode_scheme1(AnnotationSet(grid=ImageGrid(9, 9)), phi)


def _line(origin, direction, normal):
    """A one-row geometry array for an arbitrary directed line."""
    return np.array([origin + direction + normal], dtype=np.float64)


def test_layout_needs_an_axis():
    grid = ImageGrid(20, 20)
    assert build_axis_layout(grid, 4) == AxisLayout(grid=grid, count=4, margin=default_margin(grid))
    with pytest.raises(ValueError, match="at least one axis"):
        AxisLayout(grid=grid, count=0, margin=1.0)


def test_single_axis_layout_sits_below_the_image():
    grid = ImageGrid(20, 20)
    layout = build_axis_layout(grid, 1)
    ((ox, oy, dx, dy, nx, ny),) = layout.geometry
    assert (dx, dy) == pytest.approx((1.0, 0.0))
    assert (nx, ny) == pytest.approx((0.0, 1.0))
    assert oy < 1.0  # horizontal line under the pixel rows
    assert layout.bin_count == math.ceil(grid.diagonal)


def test_layout_margin_must_be_positive():
    for margin in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="margin must be > 0"):
            AxisLayout(grid=ImageGrid(20, 20), count=4, margin=margin)


def _one_cell_entry(cell, geometry, grid, bins):
    """(bin, signed distance) of one cell on a one-row geometry: the only
    entry of its signal."""
    (sig,) = _axis_signals(AnnotationSet(grid=grid, cells=(cell,)), geometry, bins)
    (r,) = np.flatnonzero(sig) + 1
    return int(r), float(sig[r - 1])


def test_project_to_axis_axis_aligned():
    grid = ImageGrid(10, 10)
    x_axis = _line((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert _one_cell_entry((3.0, 4.0), x_axis, grid, 10) == (3, 4.0)
    through = _line((0.0, 5.0), (1.0, 0.0), (0.0, 1.0))  # the cell (5, 5) sits on it: d = 0
    with pytest.raises(ValueError, match="nonzero"):
        _axis_signals(AnnotationSet(grid=grid, cells=((5.0, 5.0),)), through, 10)

    y_axis = _line((10.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
    r, d = _one_cell_entry((3.0, 4.0), y_axis, grid, 10)
    assert r == 4
    assert d == pytest.approx(7.0)


def test_all_cells_project_to_valid_bins_with_positive_distance():
    grid = ImageGrid(33, 21)
    layout = build_axis_layout(grid, 9)
    rng = np.random.default_rng(3)
    cells = rng.uniform((1, 1), (33, 21), size=(200, 2))
    px = cells[:, 0:1] - layout.geometry[:, 0]
    py = cells[:, 1:2] - layout.geometry[:, 1]
    t = px * layout.geometry[:, 2] + py * layout.geometry[:, 3]
    assert (0.5 <= t).all() and (t < layout.bin_count + 0.5).all()  # no bin is clamped
    r, d = _project_cells(cells, layout.geometry, layout.bin_count)
    assert r.shape == d.shape == (200, 9)
    assert (d >= layout.margin).all()


def test_axis_signal_keeps_nearest_on_bin_conflict():
    axis = _line((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    grid = ImageGrid(10, 10)
    # both cells round to bin 5; the d=2 cell wins over d=6
    ann = AnnotationSet(grid=grid, cells=((5.2, 2.0), (4.8, 6.0)))
    (sig,) = _axis_signals(ann, axis, 10)
    assert np.flatnonzero(sig).tolist() == [5 - 1]
    assert sig[5 - 1] == 2.0


def test_scheme2_empty_is_zero_vector():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 3)
    phi = make_sensing_matrix(8, layout.bin_count, seed=2)
    y = encode_scheme2(AnnotationSet(grid=grid), layout, phi)
    assert np.array_equal(y, np.zeros((3, 8)))


def test_scheme2_single_cell_blocks_are_scaled_columns():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 2)
    phi = make_sensing_matrix(8, layout.bin_count, seed=2)
    cell = (6.0, 11.0)
    y = encode_scheme2(AnnotationSet(grid=grid, cells=(cell,)), layout, phi)
    for block, geometry in zip(y, layout.geometry, strict=True):
        r, d = _one_cell_entry(cell, geometry[None], grid, layout.bin_count)
        expected = d * phi.entries[:, r - 1]
        assert np.allclose(block, expected, atol=1e-12)


def test_scheme2_rejects_matrix_mismatch():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 2)
    phi = make_sensing_matrix(8, layout.bin_count + 1, seed=2)
    with pytest.raises(ValueError, match=f"layout has {layout.bin_count} bins, matrix expects "
                                         f"signals of length {layout.bin_count + 1}"):
        encode_scheme2(AnnotationSet(grid=grid), layout, phi)


def _axis_signal_one_cell_at_a_time(annotations, geometry, bins):
    """Reference: project each cell on the line of one geometry row on its
    own and keep, per bin, the cell with the smallest (|d|, x, y). Returns
    (dense signal, how many cells lost a bin conflict)."""
    ox, oy, dx, dy, nx, ny = geometry.tolist()
    best = {}
    collapsed = 0
    for cx, cy in annotations.cells:
        px = cx - ox
        py = cy - oy
        t = px * dx + py * dy
        d = px * nx + py * ny
        r = min(max(round_half_up(t), 1), bins)
        key = (abs(d), cx, cy)
        if r in best:
            collapsed += 1
            if key < best[r][0]:
                best[r] = (key, d)
        else:
            best[r] = (key, d)
    if any(d == 0.0 for _, d in best.values()):
        raise ValueError("a zero distance won a bin")
    dense = np.zeros(bins)
    for r, (_, d) in best.items():
        dense[r - 1] = d
    return dense, collapsed


# axis-aligned lines with exact unit vectors: a cell at x = k + 0.5 sits
# exactly on a half bin of the first, and cells sharing y tie in |d| on it
_EXACT_AXES = np.concatenate([
    _line((0.0, -2.0), (1.0, 0.0), (0.0, 1.0)),
    _line((12.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
])


# a line through the image: cells on both sides tie in |d| with opposite
# signs, and a cell on the line has d = 0
_CROSSING_AXIS = _line((0.0, 4.5), (1.0, 0.0), (0.0, 1.0))


def _assert_same_signals(annotations, geometry, bins):
    """The all-lines-at-once signals equal the one-cell-at-a-time
    reference on every line, or both reject a zero distance; returns the
    reference rows (None on a rejection)."""
    signals = []
    for row in geometry:
        try:
            signals.append(_axis_signal_one_cell_at_a_time(annotations, row, bins)[0])
        except ValueError:  # a zero distance won a bin
            with pytest.raises(ValueError, match="nonzero"):
                _axis_signals(annotations, geometry, bins)
            return None
    want = np.stack(signals)
    assert np.array_equal(_axis_signals(annotations, geometry, bins), want)
    return want


def _assert_same_layout_signals(annotations, layout, phi):
    want = _assert_same_signals(annotations, layout.geometry, layout.bin_count)
    assert np.array_equal(axis_signals(annotations, layout), want)
    want = np.stack([phi.entries @ sig for sig in want])
    assert np.array_equal(encode_scheme2(annotations, layout, phi), want)


def test_axis_signal_matches_one_cell_at_a_time_on_conflicts():
    grid = ImageGrid(8, 8)
    cells = (
        (2.5, 3.0), (3.0, 3.0), (3.4, 3.0), (2.6, 1.0),  # bin 3 of axis 1, |d| ties and a half bin
        (5.5, 4.0), (6.0, 4.0), (6.4999, 4.0),  # bin 6, on and just below the half bin
        (1.0, 1.0), (1.0, 7.5), (8.0, 8.0),
    )
    for order in (cells, cells[::-1]):
        ann = AnnotationSet(grid=grid, cells=order)
        _assert_same_signals(ann, _EXACT_AXES, 9)
        _assert_same_signals(ann, _CROSSING_AXIS, 9)
    # both |d| = 2.5 in bin 3: the smaller x wins although its y is larger
    ann = AnnotationSet(grid=grid, cells=((3.2, 2.0), (3.0, 7.0)))
    (sig,) = _axis_signals(ann, _CROSSING_AXIS, 9)
    assert sig[sig != 0].tolist() == [2.5]
    _assert_same_signals(ann, _CROSSING_AXIS, 9)


def test_scheme2_matches_one_cell_at_a_time_on_a_crowded_layout():
    grid = ImageGrid(40, 30)
    layout = build_axis_layout(grid, 9)
    phi = make_sensing_matrix(20, layout.bin_count, seed=5)
    rng = np.random.default_rng(6)
    cells = {(float(x), float(y)) for x, y in rng.integers(1, 31, size=(300, 2)) * (4 / 3, 1)}
    cells |= {(float(x), float(y)) for x, y in rng.uniform(1, 30, size=(200, 2))}
    ann = AnnotationSet(grid=grid, cells=tuple(sorted(cells)))
    collapsed = [
        _axis_signal_one_cell_at_a_time(ann, row, layout.bin_count)[1] for row in layout.geometry
    ]
    assert sum(collapsed) > 0
    _assert_same_layout_signals(ann, layout, phi)


def test_axis_signal_rejects_a_cell_on_its_axis():
    axis = _line((0.0, 3.0), (1.0, 0.0), (0.0, 1.0))
    ann = AnnotationSet(grid=ImageGrid(8, 8), cells=((2.0, 3.0), (5.0, 6.0)))
    with pytest.raises(ValueError, match="nonzero"):
        _axis_signals(ann, axis, 9)
    # the cell on the first line also rejects the whole stack
    with pytest.raises(ValueError, match="nonzero"):
        _axis_signals(ann, np.concatenate([axis, _EXACT_AXES]), 9)


_half_steps = st.integers(2, 16).map(lambda k: k / 2)  # 1.0, 1.5, ..., 8.0


@settings(max_examples=150, deadline=None)
@given(
    cells=st.sets(
        st.tuples(
            st.one_of(_half_steps, st.floats(1.0, 8.0, allow_nan=False)),
            st.one_of(_half_steps, st.floats(1.0, 8.0, allow_nan=False)),
        ),
        max_size=30,
    ),
    axis_count=st.integers(1, 6),
)
def test_axis_signal_matches_one_cell_at_a_time_property(cells, axis_count):
    grid = ImageGrid(8, 8)
    ann = AnnotationSet(grid=grid, cells=tuple(cells))
    _assert_same_signals(ann, _EXACT_AXES, 9)
    _assert_same_signals(ann, _CROSSING_AXIS, 9)
    layout = build_axis_layout(grid, axis_count)
    _assert_same_layout_signals(ann, layout, make_sensing_matrix(6, layout.bin_count, seed=2))


def _shipped_layout(edge):
    """27 axes and 112 measurements per axis around an edge x edge patch."""
    layout = build_axis_layout(ImageGrid(edge, edge), 27)
    return layout, make_sensing_matrix(112, layout.bin_count, seed=edge)


# the default 260-px patch and the 130-px one of the OMP ensemble benchmark
_SHIPPED_LAYOUTS = {edge: _shipped_layout(edge) for edge in (260, 130)}


@settings(max_examples=60, deadline=None)
@given(edge=st.sampled_from(sorted(_SHIPPED_LAYOUTS)), data=st.data())
def test_scheme2_is_project_on_every_axis_property(edge, data):
    layout, phi = _SHIPPED_LAYOUTS[edge]
    coord = st.floats(1.0, float(edge), allow_nan=False)
    cells = data.draw(st.sets(st.tuples(coord, coord), min_size=1, max_size=20))
    x, y = min(cells)
    twin = (x, data.draw(coord.filter(lambda v: v != y)))
    # the twin shares x, so the first axis (direction (1, 0)) bins both together
    bins, _ = _project_cells(np.array([(x, y), twin]), layout.geometry[:1], layout.bin_count)
    assert bins[0, 0] == bins[1, 0]
    ann = AnnotationSet(grid=layout.grid, cells=tuple(cells | {twin}))
    want = np.stack([phi.entries @ row for row in axis_signals(ann, layout)])
    assert np.array_equal(encode_scheme2(ann, layout, phi), want)
