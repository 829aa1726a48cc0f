"""Both encoding routes: map flattening and observation-axis projection."""

import math

import numpy as np
import pytest

from csdetect.core import AnnotationSet, ImageGrid
from csdetect.encoder import (
    AxisLayout,
    ObservationAxis,
    axis_signal,
    build_axis_layout,
    default_margin,
    encode_scheme1,
    encode_scheme2,
    flatten_annotations,
    project_to_axis,
)
from csdetect.sensing import make_sensing_matrix


def test_default_margin_is_five_percent_of_diagonal():
    grid = ImageGrid(30, 40)
    assert default_margin(grid) == pytest.approx(0.05 * 50.0)


def test_flatten_identity_cell():
    grid = ImageGrid(4, 4)
    sig = flatten_annotations(AnnotationSet(grid=grid, cells=((1.0, 1.0),)))
    assert sig.length == 16
    assert list(sig.indices) == [1]
    assert list(sig.values) == [1.0]


def test_flatten_empty_is_zero_signal():
    sig = flatten_annotations(AnnotationSet(grid=ImageGrid(4, 4)))
    assert sig.length == 16
    assert sig.nnz == 0


def test_flatten_index_rule():
    grid = ImageGrid(4, 4)
    # index = x + h(y-1): (2, 3) -> 2 + 4*2 = 10
    sig = flatten_annotations(AnnotationSet(grid=grid, cells=((2.0, 3.0),)))
    assert list(sig.indices) == [10]


def test_flatten_collapses_coincident_pixels():
    grid = ImageGrid(8, 8)
    ann = AnnotationSet(grid=grid, cells=((3.1, 3.1), (3.2, 2.9), (6.0, 6.0)))
    sig = flatten_annotations(ann)
    assert sig.nnz == 2
    assert sig.collapsed_duplicates == 1


def test_flatten_rejects_out_of_range_index():
    # on a tall grid the x + h(y-1) rule can exceed w*h
    grid = ImageGrid(2, 4)
    with pytest.raises(ValueError, match="square"):
        flatten_annotations(AnnotationSet(grid=grid, cells=((2.0, 4.0),)))


def test_scheme1_zero_and_linearity():
    grid = ImageGrid(8, 8)
    phi = make_sensing_matrix(20, 64, seed=1)
    zero = encode_scheme1(AnnotationSet(grid=grid), phi)
    assert np.array_equal(zero.values, np.zeros(20))

    a = AnnotationSet(grid=grid, cells=((2.0, 2.0), (7.0, 3.0)))
    b = AnnotationSet(grid=grid, cells=((4.0, 6.0), (1.0, 8.0)))
    both = AnnotationSet(grid=grid, cells=a.cells + b.cells)
    lhs = encode_scheme1(both, phi).values
    rhs = encode_scheme1(a, phi).values + encode_scheme1(b, phi).values
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


def test_project_to_axis_axis_aligned():
    x_axis = ObservationAxis(
        index=1, origin=(0.0, 0.0), direction=(1.0, 0.0), normal=(0.0, 1.0), bin_count=10
    )
    assert project_to_axis((3.0, 4.0), x_axis) == (3, 4.0)
    assert project_to_axis((5.0, 0.0), x_axis)[1] == 0.0

    y_axis = ObservationAxis(
        index=2, origin=(10.0, 0.0), direction=(0.0, 1.0), normal=(-1.0, 0.0), bin_count=10
    )
    r, d = project_to_axis((3.0, 4.0), y_axis)
    assert r == 4
    assert d == pytest.approx(7.0)


def test_all_cells_project_to_valid_bins_with_positive_distance():
    grid = ImageGrid(33, 21)
    layout = build_axis_layout(grid, 9)
    rng = np.random.default_rng(3)
    cells = [(rng.uniform(1, 33), rng.uniform(1, 21)) for _ in range(200)]
    for axis in layout.axes:
        for cell in cells:
            r, d = project_to_axis(cell, axis)
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
    assert list(sig.indices) == [5]
    assert list(sig.values) == [2.0]
    assert sig.collapsed_duplicates == 1


def test_scheme2_empty_is_zero_vector():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 3)
    phi = make_sensing_matrix(8, layout.bin_count, seed=2)
    y = encode_scheme2(AnnotationSet(grid=grid), layout, phi)
    assert y.block_count == 3 and y.block_size == 8
    assert np.array_equal(y.values, np.zeros(24))


def test_scheme2_single_cell_blocks_are_scaled_columns():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 2)
    phi = make_sensing_matrix(8, layout.bin_count, seed=2)
    cell = (6.0, 11.0)
    y = encode_scheme2(AnnotationSet(grid=grid, cells=(cell,)), layout, phi)
    for axis in layout.axes:
        r, d = project_to_axis(cell, axis)
        expected = d * phi.entries[:, r - 1]
        assert np.allclose(y.block(axis.index - 1), expected, atol=1e-12)


def test_scheme2_rejects_matrix_mismatch():
    grid = ImageGrid(16, 16)
    layout = build_axis_layout(grid, 2)
    phi = make_sensing_matrix(8, layout.bin_count + 1, seed=2)
    with pytest.raises(ValueError):
        encode_scheme2(AnnotationSet(grid=grid), layout, phi)
