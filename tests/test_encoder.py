"""Both encoding routes: map flattening and observation-axis projection."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdetect.core import AnnotationSet, ImageGrid, round_half_up
from csdetect.encoder import (
    AxisLayout,
    ObservationAxis,
    axis_signal,
    build_axis_layout,
    default_margin,
    encode_scheme1,
    encode_scheme2,
    flatten_annotations,
)
from csdetect.sensing import make_sensing_matrix, project


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


def test_axis_validation():
    ObservationAxis(index=1, origin=(0, 0), direction=(1, 0), normal=(0, 1), bin_count=5)
    with pytest.raises(ValueError, match="unit"):
        ObservationAxis(index=1, origin=(0, 0), direction=(2, 0), normal=(0, 1), bin_count=5)
    with pytest.raises(ValueError):
        ObservationAxis(index=1, origin=(0, 0), direction=(1, 0), normal=(1, 0), bin_count=5)
    with pytest.raises(ValueError, match="rotated"):
        # unit and orthogonal, but rotated -90 instead of +90
        ObservationAxis(index=1, origin=(0, 0), direction=(1, 0), normal=(0, -1), bin_count=5)


def test_single_axis_layout_sits_below_the_image():
    grid = ImageGrid(20, 20)
    layout = build_axis_layout(grid, 1)
    axis = layout.axes[0]
    assert axis.direction == pytest.approx((1.0, 0.0))
    assert axis.normal == pytest.approx((0.0, 1.0))
    assert axis.origin[1] < 1.0  # horizontal line under the pixel rows
    assert layout.bin_count == math.ceil(grid.diagonal)


def test_layout_rejects_axis_crossing_the_image():
    grid = ImageGrid(20, 20)
    through = ObservationAxis(
        index=1, origin=(0.0, 10.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=29
    )
    with pytest.raises(ValueError, match="intersects"):
        AxisLayout(axes=(through,), grid=grid, margin=1.0)


def test_layout_margin_must_be_positive():
    with pytest.raises(ValueError):
        build_axis_layout(ImageGrid(20, 20), 4, margin=0.0)


def _one_cell_entry(cell, axis, grid):
    """(bin, signed distance) of one cell: the only entry of its axis signal."""
    sig = axis_signal(AnnotationSet(grid=grid, cells=(cell,)), axis)
    (r,) = np.flatnonzero(sig) + 1
    return int(r), float(sig[r - 1])


def test_project_to_axis_axis_aligned():
    grid = ImageGrid(10, 10)
    x_axis = ObservationAxis(
        index=1, origin=(0.0, 0.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=10
    )
    assert _one_cell_entry((3.0, 4.0), x_axis, grid) == (3, 4.0)
    through = replace(x_axis, origin=(0.0, 5.0))  # the cell (5, 5) sits on it: d = 0
    with pytest.raises(ValueError, match="nonzero"):
        axis_signal(AnnotationSet(grid=grid, cells=((5.0, 5.0),)), through)

    y_axis = ObservationAxis(
        index=2, origin=(10.0, 0.0), direction=(0.0, 1.0), normal=(-1.0, 0.0), bin_count=10
    )
    r, d = _one_cell_entry((3.0, 4.0), y_axis, grid)
    assert r == 4
    assert d == pytest.approx(7.0)


def test_all_cells_project_to_valid_bins_with_positive_distance():
    grid = ImageGrid(33, 21)
    layout = build_axis_layout(grid, 9)
    rng = np.random.default_rng(3)
    cells = [(rng.uniform(1, 33), rng.uniform(1, 21)) for _ in range(200)]
    for axis in layout.axes:
        for cell in cells:
            r, d = _one_cell_entry(cell, axis, grid)
            assert 1 <= r <= axis.bin_count
            assert d >= layout.margin


def test_axis_signal_keeps_nearest_on_bin_conflict():
    axis = ObservationAxis(
        index=1, origin=(0.0, 0.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=10
    )
    grid = ImageGrid(10, 10)
    # both cells round to bin 5; the d=2 cell wins over d=6
    ann = AnnotationSet(grid=grid, cells=((5.2, 2.0), (4.8, 6.0)))
    sig = axis_signal(ann, axis)
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
    for block, axis in zip(y, layout.axes, strict=True):
        r, d = _one_cell_entry(cell, axis, grid)
        expected = d * phi.entries[:, r - 1]
        assert np.allclose(block, expected, atol=1e-12)


def test_scheme2_rejects_matrix_mismatch():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 2)
    phi = make_sensing_matrix(8, layout.bin_count + 1, seed=2)
    with pytest.raises(ValueError):
        encode_scheme2(AnnotationSet(grid=grid), layout, phi)
    # only the second axis disagrees with the matrix: the message names it
    first, second = layout.axes
    mixed = AxisLayout(
        axes=(first, replace(second, bin_count=second.bin_count + 1)),
        grid=grid,
        margin=layout.margin,
    )
    phi = make_sensing_matrix(8, layout.bin_count, seed=2)
    with pytest.raises(ValueError, match=f"axis 2 has {layout.bin_count + 1} bins"):
        encode_scheme2(AnnotationSet(grid=grid), mixed, phi)


def _axis_signal_one_cell_at_a_time(annotations, axis):
    """Reference: project each cell on its own and keep, per bin, the cell
    with the smallest (|d|, x, y). Returns (dense signal, how many cells
    lost a bin conflict)."""
    best = {}
    collapsed = 0
    for cx, cy in annotations.cells:
        px = cx - axis.origin[0]
        py = cy - axis.origin[1]
        t = px * axis.direction[0] + py * axis.direction[1]
        d = px * axis.normal[0] + py * axis.normal[1]
        r = min(max(round_half_up(t), 1), axis.bin_count)
        key = (abs(d), cx, cy)
        if r in best:
            collapsed += 1
            if key < best[r][0]:
                best[r] = (key, d)
        else:
            best[r] = (key, d)
    if any(d == 0.0 for _, d in best.values()):
        raise ValueError("a zero distance won a bin")
    dense = np.zeros(axis.bin_count)
    for r, (_, d) in best.items():
        dense[r - 1] = d
    return dense, collapsed


# axis-aligned axes with exact unit vectors: a cell at x = k + 0.5 sits
# exactly on a half bin of the first, and cells sharing y tie in |d| on it
_EXACT_AXES = (
    ObservationAxis(index=1, origin=(0.0, -2.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=9),
    ObservationAxis(index=2, origin=(12.0, 0.0), direction=(0.0, 1.0), normal=(-1.0, 0.0), bin_count=9),
)


# a line through the image (axis_signal takes any axis): cells on both
# sides tie in |d| with opposite signs, and a cell on the line has d = 0
_CROSSING_AXIS = ObservationAxis(
    index=3, origin=(0.0, 4.5), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=9
)


def _assert_same_signals(annotations, axes, phi=None):
    signals = []
    for axis in axes:
        try:
            signals.append(_axis_signal_one_cell_at_a_time(annotations, axis)[0])
        except ValueError:  # a zero distance won a bin
            with pytest.raises(ValueError, match="nonzero"):
                axis_signal(annotations, axis)
            return
    for axis, want in zip(axes, signals):
        assert np.array_equal(axis_signal(annotations, axis), want)
    if phi is not None:
        layout = AxisLayout(axes=axes, grid=annotations.grid, margin=1.0)
        want = np.stack([project(phi, sig) for sig in signals])
        assert np.array_equal(encode_scheme2(annotations, layout, phi), want)


def test_axis_signal_matches_one_cell_at_a_time_on_conflicts():
    grid = ImageGrid(8, 8)
    phi = make_sensing_matrix(5, 9, seed=4)
    cells = (
        (2.5, 3.0), (3.0, 3.0), (3.4, 3.0), (2.6, 1.0),  # bin 3 of axis 1, |d| ties and a half bin
        (5.5, 4.0), (6.0, 4.0), (6.4999, 4.0),  # bin 6, on and just below the half bin
        (1.0, 1.0), (1.0, 7.5), (8.0, 8.0),
    )
    for order in (cells, cells[::-1]):
        ann = AnnotationSet(grid=grid, cells=order)
        _assert_same_signals(ann, _EXACT_AXES, phi)
        _assert_same_signals(ann, (_CROSSING_AXIS,))
    # both |d| = 2.5 in bin 3: the smaller x wins although its y is larger
    ann = AnnotationSet(grid=grid, cells=((3.2, 2.0), (3.0, 7.0)))
    sig = axis_signal(ann, _CROSSING_AXIS)
    assert sig[sig != 0].tolist() == [2.5]
    _assert_same_signals(ann, (_CROSSING_AXIS,))


def test_scheme2_matches_one_cell_at_a_time_on_a_crowded_layout():
    grid = ImageGrid(40, 30)
    layout = build_axis_layout(grid, 9)
    phi = make_sensing_matrix(20, layout.bin_count, seed=5)
    rng = np.random.default_rng(6)
    cells = {(float(x), float(y)) for x, y in rng.integers(1, 31, size=(300, 2)) * (4 / 3, 1)}
    cells |= {(float(x), float(y)) for x, y in rng.uniform(1, 30, size=(200, 2))}
    ann = AnnotationSet(grid=grid, cells=tuple(sorted(cells)))
    collapsed = [_axis_signal_one_cell_at_a_time(ann, axis)[1] for axis in layout.axes]
    assert sum(collapsed) > 0
    _assert_same_signals(ann, layout.axes, phi)


def test_axis_signal_rejects_a_cell_on_its_axis():
    axis = ObservationAxis(index=1, origin=(0.0, 3.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=9)
    ann = AnnotationSet(grid=ImageGrid(8, 8), cells=((2.0, 3.0), (5.0, 6.0)))
    with pytest.raises(ValueError, match="nonzero"):
        axis_signal(ann, axis)
    layout = AxisLayout(axes=(axis,), grid=ImageGrid(8, 2), margin=0.5)
    with pytest.raises(ValueError, match="nonzero"):
        encode_scheme2(AnnotationSet(grid=ImageGrid(8, 8), cells=((4.0, 3.0),)), layout,
                       make_sensing_matrix(4, 9, seed=1))


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
    _assert_same_signals(ann, _EXACT_AXES, make_sensing_matrix(5, 9, seed=4))
    _assert_same_signals(ann, (_CROSSING_AXIS,))
    layout = build_axis_layout(grid, axis_count)
    _assert_same_signals(ann, layout.axes, make_sensing_matrix(6, layout.bin_count, seed=2))
