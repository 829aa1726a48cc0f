"""Domain types: grids, annotations, detections, CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdetect.core import (
    AnnotationSet,
    DetectionResult,
    ImageGrid,
    load_annotations_csv,
    round_half_up,
    save_annotations_csv,
    save_detections_csv,
    write_csv,
)


def test_round_half_up():
    assert round_half_up(3.5) == 4
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(7.0) == 7


def test_grid_properties():
    grid = ImageGrid(width=3, height=4)
    assert grid.n_pixels == 12
    assert grid.diagonal == pytest.approx(5.0)
    assert grid.center == (2.0, 2.5)


def test_grid_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        ImageGrid(width=0, height=5)
    with pytest.raises(ValueError):
        ImageGrid(width=5, height=-1)


def test_grid_contains_with_margin():
    grid = ImageGrid(width=10, height=10)
    assert grid.contains(1.0, 1.0)
    assert grid.contains(10.0, 10.0)
    assert not grid.contains(0.5, 5.0)
    assert grid.contains(0.5, 5.0, margin=0.5)
    assert grid.contains(10.4, 10.4, margin=0.5)
    assert not grid.contains(11.0, 5.0, margin=0.5)


def test_annotations_validate_bounds_and_duplicates():
    grid = ImageGrid(width=8, height=8)
    AnnotationSet(grid=grid, cells=((1.0, 1.0), (8.0, 8.0), (3.25, 4.75)))
    with pytest.raises(ValueError):
        AnnotationSet(grid=grid, cells=((0.5, 2.0),))
    with pytest.raises(ValueError):
        AnnotationSet(grid=grid, cells=((2.0, 2.0), (2.0, 2.0)))


def test_annotations_coords_shape():
    grid = ImageGrid(width=8, height=8)
    empty = AnnotationSet(grid=grid)
    assert empty.coords().shape == (0, 2)
    assert len(empty) == 0
    ann = AnnotationSet(grid=grid, cells=((2.0, 3.0), (5.5, 6.5)))
    assert ann.coords().shape == (2, 2)
    assert np.allclose(ann.coords()[1], (5.5, 6.5))


def test_annotations_csv_round_trip(tmp_path):
    grid = ImageGrid(width=16, height=16)
    ann = AnnotationSet(grid=grid, cells=((1.5, 2.25), (10.0, 3.0), (16.0, 16.0)))
    path = tmp_path / "ann.csv"
    save_annotations_csv(ann, path)
    assert load_annotations_csv(path, grid) == ann
    assert path.read_text().splitlines()[0] == "x,y"


@st.composite
def _annotation_sets(draw):
    grid = ImageGrid(draw(st.integers(1, 300)), draw(st.integers(1, 300)))
    cells = draw(st.lists(
        st.tuples(st.floats(1.0, float(grid.width)), st.floats(1.0, float(grid.height))),
        unique=True, max_size=20,
    ))
    return AnnotationSet(grid=grid, cells=tuple(cells))


@settings(max_examples=100, deadline=None)
@given(ann=_annotation_sets())
def test_annotations_csv_round_trip_property(tmp_path_factory, ann):
    path = tmp_path_factory.mktemp("csv") / "ann.csv"
    save_annotations_csv(ann, path)
    loaded = load_annotations_csv(path, ann.grid)
    assert loaded.cells == ann.cells  # every float comes back exactly, in order


def test_annotations_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_annotations_csv(path, ImageGrid(4, 4))


def test_detected_point_validation():
    # every row is one detected point: x, y, support
    DetectionResult(points=((1.0, 2.0, 3),))
    with pytest.raises(ValueError, match="support"):
        DetectionResult(points=((1.0, 2.0, 3), (1.0, 2.0, 0)))
    with pytest.raises(ValueError, match="support"):
        DetectionResult(points=((1.0, 2.0, float("nan")),))
    with pytest.raises(ValueError, match="finite"):
        DetectionResult(points=((float("nan"), 2.0, 1),))
    with pytest.raises(ValueError, match="finite"):
        DetectionResult(points=((1.0, float("inf"), 1),))
    with pytest.raises(ValueError, match="shape"):
        DetectionResult(points=((1.0, 2.0),))


def test_detection_result_rows_and_coords():
    rows = np.array([[1.0, 2.0, 4], [3.0, 4.0, 1]])
    result = DetectionResult(points=rows)
    assert len(result) == 2
    assert np.array_equal(result.points, rows)
    assert np.array_equal(result.coords(), [[1.0, 2.0], [3.0, 4.0]])
    rows[0, 0] = 99.0  # the result holds its own copy, and it is read-only
    assert result.points[0, 0] == 1.0
    with pytest.raises(ValueError):
        result.points[0, 0] = 5.0
    assert DetectionResult().points.shape == (0, 3)
    assert DetectionResult().coords().shape == (0, 2)


def test_detections_csv_round_trip(tmp_path):
    result = DetectionResult(points=((1.25, 2.5, 7), (9.0, 9.0, 1), (0.1 + 0.2, 1 / 3, 2)))
    path = tmp_path / "det.csv"
    save_detections_csv(result, path)
    text = path.read_text()
    assert text == (
        "x,y,support\n"
        "1.25,2.5,7\n"
        "9.0,9.0,1\n"
        "0.30000000000000004,0.3333333333333333,2\n"
    )
    rows = [line.split(",") for line in text.splitlines()[1:]]
    parsed = DetectionResult(points=[(float(x), float(y), int(s)) for x, y, s in rows])
    assert np.array_equal(parsed.points, result.points)


def test_write_csv_writes_floats_in_their_shortest_round_trip_form(tmp_path):
    values = [0.1, 1 / 3, 1e-20, 1e16, 5e-324, -0.0]
    rows = [["py", 7, *values], ["np", -2, *map(np.float64, values)]]
    path = tmp_path / "table.csv"
    write_csv(path, ["kind", "n", "a", "b", "c", "d", "e", "f"], rows)
    floats = "0.1,0.3333333333333333,1e-20,1e+16,5e-324,-0.0"
    assert path.read_bytes() == (
        f"kind,n,a,b,c,d,e,f\npy,7,{floats}\nnp,-2,{floats}\n".encode()
    )
    for line in path.read_text().splitlines()[1:]:
        assert [float(cell) for cell in line.split(",")[2:]] == values
