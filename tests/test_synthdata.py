"""Synthetic image generation, patch tiling, augmentation, file formats."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csdetect.core import AnnotationSet, ImageGrid, round_half_up
from csdetect.synthdata import (
    SynthesisParams,
    extract_patches,
    generate_image,
    load_pgm,
    read_manifest,
    rotate_augment,
    save_pgm,
    write_manifest,
)

BASE = SynthesisParams(image_width=64, image_height=64, blob_radius=(3.0, 5.0), min_separation=12.0)


def test_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, cell_count=(5, 2))
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, blob_radius=(0.0, 2.0))
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, intensity=(0.5, 1.5))
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, background_noise_sigma=-0.1)
    with pytest.raises(ValueError, match=r"cell_count must be a \[min, max\] pair, got 5"):
        dataclasses.replace(BASE, cell_count=5)
    with pytest.raises(ValueError, match="image_width"):
        dataclasses.replace(BASE, image_width=0)
    assert dataclasses.replace(BASE, intensity=[0.5, 1.0]).intensity == (0.5, 1.0)


def test_zero_cells_gives_noise_only_image():
    params = dataclasses.replace(BASE, cell_count=(0, 0))
    image, ann = generate_image(params, 1)
    assert len(ann) == 0
    assert image.shape == (64, 64)
    assert image.max() <= 1.0 and image.min() >= 0.0
    assert image.max() < 0.2  # nothing rendered, just clipped noise


def test_generation_is_deterministic():
    image_a, ann_a = generate_image(BASE, 77)
    image_b, ann_b = generate_image(BASE, 77)
    assert np.array_equal(image_a, image_b)
    assert ann_a == ann_b


def test_separation_constraint_is_respected():
    params = SynthesisParams(cell_count=(5, 5), min_separation=40.0)
    _, ann = generate_image(params, 3)
    pts = ann.coords()
    assert len(ann) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.hypot(*(pts[i] - pts[j])) >= 40.0


def test_blobs_peak_near_their_centroids():
    params = dataclasses.replace(
        BASE, cell_count=(3, 3), background_noise_sigma=0.0, intensity=(0.9, 1.0)
    )
    image, ann = generate_image(params, 5)
    for x, y in ann.cells:
        assert image[round_half_up(y) - 1, round_half_up(x) - 1] > 0.5


def test_infeasible_separation_raises():
    params = dataclasses.replace(
        BASE, cell_count=(30, 30), min_separation=60.0
    )
    with pytest.raises(ValueError, match="could not place"):
        generate_image(params, 0)


def test_patch_tiling_covers_and_localizes():
    grid = ImageGrid(40, 40)
    cells = ((5.0, 5.0), (21.0, 7.0), (37.5, 38.2))
    ann = AnnotationSet(grid=grid, cells=cells)
    image = np.arange(1600, dtype=float).reshape(40, 40) / 1600.0
    patches = extract_patches(image, ann, patch_size=16, offset=(0, 0))
    assert len(patches) == 4  # 2x2 full tiles, the 8 px border strip dropped
    assert sum(len(p.cells) for p in patches) == 2  # (37.5, 38.2) is in the strip
    for p in patches:
        x0, y0 = p.origin
        assert np.array_equal(p.pixels, image[y0 : y0 + 16, x0 : x0 + 16])
        for lx, ly in p.cells.cells:
            assert 1.0 <= lx <= 16.0 and 1.0 <= ly <= 16.0
            gx, gy = lx + x0, ly + y0
            assert any(abs(gx - cx) < 1.0 and abs(gy - cy) < 1.0 for cx, cy in cells)


def test_patch_boundary_cell_lands_in_exactly_one_tile():
    grid = ImageGrid(32, 32)
    # rounds to pixel 16 -> left tile; 16.6 would round to 17 -> right tile
    ann = AnnotationSet(grid=grid, cells=((16.4, 8.0), (16.6, 24.0)))
    patches = extract_patches(np.zeros((32, 32)), ann, patch_size=16)
    owners = [(p.origin, p.cells.cells) for p in patches if len(p.cells)]
    assert sum(len(c) for _, c in owners) == 2
    assert {o[0] for o, _ in owners} == {0, 16}


def test_patch_offset_validation():
    image = np.zeros((32, 32))
    ann = AnnotationSet(grid=ImageGrid(32, 32))
    with pytest.raises(ValueError):
        extract_patches(image, ann, patch_size=16, offset=(16, 0))
    with pytest.raises(ValueError):
        extract_patches(image, ann, patch_size=64)


def test_rotation_identity_and_corners():
    grid = ImageGrid(8, 8)
    ann = AnnotationSet(grid=grid, cells=((1.0, 1.0), (3.0, 2.0)))
    patch = np.random.default_rng(0).uniform(size=(8, 8))
    views = rotate_augment(patch, ann)
    assert len(views) == 4
    assert views[0][0] is patch and views[0][1] is ann
    # 180 degrees sends the (1, 1) corner to (s, s)
    assert (8.0, 8.0) in views[2][1].cells


def _dense_map(annotations):
    """Binary (height, width) map, 1 at each rounded centroid: row y-1,
    column x-1."""
    grid = annotations.grid
    dense = np.zeros((grid.height, grid.width), dtype=np.uint8)
    for x, y in annotations.cells:
        px = min(max(round_half_up(x), 1), grid.width)
        py = min(max(round_half_up(y), 1), grid.height)
        dense[py - 1, px - 1] = 1
    return dense


def test_rotation_moves_cells_with_the_pixels():
    grid = ImageGrid(9, 9)
    ann = AnnotationSet(grid=grid, cells=((2.0, 5.0), (7.0, 3.0)))
    delta = _dense_map(ann).astype(float)
    for pixels, cells in rotate_augment(delta, ann):
        assert np.array_equal(pixels, _dense_map(cells))


def test_four_rotations_compose_to_identity():
    grid = ImageGrid(8, 8)
    ann = AnnotationSet(grid=grid, cells=((2.5, 6.25),))
    patch = np.random.default_rng(1).uniform(size=(8, 8))
    pixels, cells = patch, ann
    for _ in range(4):
        _, (pixels, cells) = 0, rotate_augment(pixels, cells)[1]
    assert np.array_equal(pixels, patch)
    assert cells == ann


def test_rotation_rejects_non_square():
    with pytest.raises(ValueError):
        rotate_augment(np.zeros((4, 5)), AnnotationSet(grid=ImageGrid(5, 4)))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    image = rng.uniform(size=(12, 17))
    path = tmp_path / "img.pgm"
    save_pgm(image, path)
    loaded = load_pgm(path)
    assert loaded.dtype == np.uint8 and loaded.shape == (12, 17)
    assert np.array_equal(loaded, np.rint(np.clip(image, 0.0, 1.0) * 255.0))
    data = path.read_bytes()
    save_pgm(loaded, path)
    assert path.read_bytes() == data


@settings(max_examples=100, deadline=None)
@given(image=hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.one_of(st.floats(-0.5, 1.5), st.integers(0, 255).map(lambda v: v / 255.0)),
))
def test_pgm_round_trip_property(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    save_pgm(image, path)
    loaded = load_pgm(path)
    assert loaded.dtype == np.uint8 and loaded.shape == image.shape
    assert np.array_equal(loaded, np.rint(np.clip(image, 0.0, 1.0) * 255.0))
    data = path.read_bytes()
    save_pgm(loaded, path)  # uint8 levels are written unchanged
    assert path.read_bytes() == data


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_pgm_rejects_non_finite_pixels_before_writing(tmp_path, bad):
    image = np.full((3, 4), 0.5)
    image[1, 2] = bad
    path = tmp_path / "img.pgm"
    with pytest.raises(ValueError, match="non-finite") as exc:
        save_pgm(image, path)
    assert str(exc.value).startswith(f"{path}: ")
    assert not path.exists()


def test_pgm_parser_handles_comments_and_rejects_garbage(tmp_path):
    path = tmp_path / "img.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    assert load_pgm(path).shape == (2, 3)
    path.write_bytes(b"P6\n3 2\n255\n" + body)
    with pytest.raises(ValueError, match="PGM"):
        load_pgm(path)
    path.write_bytes(b"P5\n3 2\n255\n" + body[:-2])
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(path)


@pytest.mark.parametrize("header, reason", [
    (b"", "not a binary PGM"),
    (b"P5", "truncated PGM header, 0 of"),
    (b"P5\n260", "truncated PGM header, 1 of"),
    (b"P5\n260 260\n# trailing comment\n", "truncated PGM header, 2 of"),
    (b"P5\n# no end of line", "comment has no end of line"),
    (b"P5\n3 two\n255\n", "must be integers, got '3 two 255'"),
    (b"P5\n3 -2\n255\n", "must be integers"),
    (b"P5 0 0 255\n", "must be positive, got 0x0"),
    (b"P5\n3 2\n255", "truncated pixel data"),
    (b"P5x 3 2 255\n", "not a binary PGM"),
])
def test_pgm_header_errors_name_the_file(tmp_path, header, reason):
    path = tmp_path / "img.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=reason) as exc:
        load_pgm(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_manifest_round_trip(tmp_path):
    manifest = {
        "grid": {"width": 64, "height": 64},
        "seed": 7,
        "images": [{"id": "train_000", "image": "images/train_000.pgm",
                    "annotations": "annotations/train_000.csv", "split": "train"}],
        "splits": {"train": ["train_000"], "test": []},
    }
    path = tmp_path / "manifest.yaml"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest
    write_manifest({"grid": {}}, path)
    with pytest.raises(ValueError, match="images"):
        read_manifest(path)


_names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=12)


@st.composite
def _manifests(draw):
    ids = draw(st.lists(_names, unique=True, max_size=5))
    images = []
    for image_id in ids:
        entry = {"id": image_id, "image": draw(_names), "annotations": draw(_names)}
        if draw(st.booleans()):
            entry["split"] = draw(_names)
        images.append(entry)
    manifest = {
        "grid": {"width": draw(st.integers(1, 10_000)), "height": draw(st.integers(1, 10_000))},
        "images": images,
    }
    if draw(st.booleans()):
        manifest["seed"] = draw(st.integers(-(2**63), 2**63 - 1))
    if draw(st.booleans()):
        manifest["splits"] = draw(
            st.dictionaries(_names, st.lists(st.sampled_from(ids)) if ids else st.just([]), max_size=3)
        )
    return manifest


@settings(max_examples=100, deadline=None)
@given(manifest=_manifests())
def test_manifest_round_trip_property(tmp_path_factory, manifest):
    path = tmp_path_factory.mktemp("manifest") / "manifest.yaml"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


_GOOD_ENTRY = {"id": "a", "image": "images/a.pgm", "annotations": "annotations/a.csv"}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("", "manifest must be a mapping, got NoneType"),
        ("- 1\n- 2\n", "manifest must be a mapping, got list"),
        ("grid: [\n", "not valid YAML"),
        ("grid: {width: 64, height: 64}\n", "missing 'images'"),
        ("grid: 64\nimages: []\n", "grid.width must be a positive integer"),
        ("grid: {width: 0, height: 64}\nimages: []\n", "grid.width must be a positive integer, got 0"),
        ("grid: {width: 64, height: '64'}\nimages: []\n", "grid.height must be a positive integer, got '64'"),
        ("grid: {width: 64, height: true}\nimages: []\n", "grid.height must be a positive integer, got True"),
        ("grid: {width: 64}\nimages: []\n", "grid.height must be a positive integer, got None"),
        ("grid: {width: 64, height: 64}\nimages: {}\n", "'images' must be a list"),
        ("grid: {width: 64, height: 64}\nimages: [a.pgm]\n", r"images\[0\] must be a mapping"),
        ("grid: {width: 64, height: 64}\nsplits: {test: null}\nimages: []\n", "'splits' must map"),
    ],
)
def test_manifest_shape_errors_name_the_file(tmp_path, text, reason):
    path = tmp_path / "manifest.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason) as exc:
        read_manifest(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("key", ["id", "image", "annotations"])
def test_manifest_entry_errors_name_the_index(tmp_path, key):
    path = tmp_path / "manifest.yaml"
    missing = {k: v for k, v in _GOOD_ENTRY.items() if k != key}
    numeric = dict(_GOOD_ENTRY, **{key: 7})
    for bad in (missing, numeric):
        write_manifest({"grid": {"width": 64, "height": 64}, "images": [_GOOD_ENTRY, bad]}, path)
        with pytest.raises(ValueError, match=rf"images\[1\] needs a string '{key}'") as exc:
            read_manifest(path)
        assert str(exc.value).startswith(f"{path}: ")
