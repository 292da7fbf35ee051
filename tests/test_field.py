"""Field container, centering, sensor regions and CSV round trips."""

import hashlib
import io
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import stiffid.field
from stiffid import (
    AlreadyCentered,
    BeamSpec,
    DisplacementField,
    EmptySelection,
    FieldFileError,
    InvalidArgument,
    MeshPattern,
    SensorRegion,
    beam_load_cases,
    center_field,
    estimate_lin,
    filter_outliers,
    read_field_csv,
    select_sensor,
    write_field_csv,
)
from stiffid.cli import main
from stiffid.field import _WRITE_BLOCK_ROWS, BOUNDARY_TOL, column_mean
from stiffid.synthetic import _noisy_displacements


def grid_field(edge=10.0, step=1.0, origin=(0.0, 0.0, 0.0), centered=True):
    """Regular (edge/step + 1)^3 grid with zero displacements."""
    off = np.arange(-edge / 2, edge / 2 + step / 2, step)
    x, y, z = np.meshgrid(off, off, off, indexing="ij")
    pos = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    return DisplacementField(pos, np.zeros_like(pos), origin, centered=centered)


def random_field(n=50, seed=0, centered=True):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5.0, 5.0, (n, 3))
    disp = rng.normal(0.0, 1e-3, (n, 3))
    return DisplacementField(pos, disp, (0.0, 0.0, 0.0), centered=centered)


class TestDisplacementField:
    def test_basic_properties(self):
        f = grid_field(2.0, 1.0)
        assert f.n == 27
        assert_array_equal(f.positions[0], [-1.0, -1.0, -1.0])

    def test_arrays_are_frozen(self):
        f = random_field()
        with pytest.raises(ValueError):
            f.positions[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.displacements[0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DisplacementField(np.zeros((4, 3)), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.zeros((3, 2)), np.zeros(9), np.zeros((2, 3, 1))])
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ValueError):
            DisplacementField(bad, bad)

    def test_non_finite_rejected(self):
        pos = np.zeros((3, 3))
        disp = np.zeros((3, 3))
        disp[1, 1] = np.nan
        with pytest.raises(ValueError):
            DisplacementField(pos, disp)

    def test_input_arrays_not_aliased(self):
        pos = np.zeros((3, 3))
        disp = np.ones((3, 3))
        f = DisplacementField(pos, disp)
        pos[0, 0] = 99.0
        assert f.positions[0, 0] == 0.0


def _row_arrays():
    rng = np.random.default_rng(21)
    pos = rng.uniform(-5.0, 5.0, (40, 3))
    disp = rng.normal(0.0, 1e-3, (40, 3))
    disp[0] = -0.0
    return pos, disp, np.array([1.0, -2.0, 0.5])


def _by_constructor(tmp_path):
    pos, disp, ref = _row_arrays()
    return DisplacementField(pos, disp, ref), pos, disp


def _by_center_field(tmp_path):
    pos, disp, ref = _row_arrays()
    return center_field(DisplacementField(pos, disp, ref)), pos - ref, disp


def _by_select_sensor(tmp_path):
    pos, disp, _ = _row_arrays()
    region = SensorRegion.cube(6.0)
    keep = region.mask(pos)
    assert 0 < keep.sum() < len(pos)
    field = select_sensor(DisplacementField(pos, disp, centered=True), region)
    return field, pos[keep], disp[keep]


def _by_read_field_csv(tmp_path):
    pos, disp, _ = _row_arrays()
    path = tmp_path / "field.csv"
    write_field_csv(path, DisplacementField(pos, disp))
    return read_field_csv(path), pos, disp


def _by_filter_outliers(tmp_path):
    pos, disp, _ = _row_arrays()
    disp[[1, 4]] += 1e-2  # far outside the noise, so the cut drops them
    source = DisplacementField(pos, disp, centered=True)
    field, removed = filter_outliers(source, estimate_lin(source))
    keep = np.ones(len(pos), dtype=bool)
    keep[removed] = False
    assert removed.size
    return field, pos[keep], disp[keep]


def _by_beam_load_cases(tmp_path):
    pattern = MeshPattern.square(4.0, 1.0, "x")
    field = beam_load_cases(BeamSpec(), pattern, sigma=5.6e-5, seed=3)[2].field
    off = np.arange(-2.0, 3.0)
    u, v = np.meshgrid(off, off, indexing="ij")
    pos = np.column_stack([np.zeros(u.size), u.ravel(), v.ravel()])
    rigid = beam_load_cases(BeamSpec(), pattern)[2].field.displacements
    return field, pos, _noisy_displacements(rigid, 5.6e-5, np.random.default_rng(5), 1)[0]


@pytest.mark.parametrize("build", [
    _by_constructor, _by_center_field, _by_select_sensor, _by_read_field_csv,
    _by_filter_outliers, _by_beam_load_cases,
], ids=lambda build: build.__name__[4:])
def test_fields_hold_read_only_planes(build, tmp_path):
    # The fits read (3, n) component planes; a field holds its arrays
    # that way, with the values it was given, bit for bit.
    field, positions, displacements = build(tmp_path)
    for got, expected in ((field.positions, positions),
                          (field.displacements, displacements)):
        assert got.shape == expected.shape
        assert got.swapaxes(-1, -2).flags.c_contiguous
        assert not got.flags.writeable
        assert got.tobytes() == np.asarray(expected).tobytes()


class TestCentering:
    def test_center_shifts_positions_only(self):
        pos = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
        disp = np.full((3, 3), 0.5)
        f = DisplacementField(pos, disp, (1.0, 0.0, 0.0))
        c = center_field(f)
        assert c.centered
        assert_array_equal(c.positions, pos - [1.0, 0.0, 0.0])
        assert_array_equal(c.displacements, disp)
        assert_array_equal(c.reference_point, [1.0, 0.0, 0.0])

    def test_position_overflowing_relative_to_reference_named_before_numpy_warns(self):
        # Each value is finite, but 1.7e308 - (-1.7e308) is not.
        f = DisplacementField(np.eye(3) * 1.7e308, np.zeros((3, 3)), (-1.7e308, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positions contains non-finite values"):
                center_field(f)

    def test_center_twice_raises(self):
        f = center_field(grid_field(centered=False))
        with pytest.raises(AlreadyCentered):
            center_field(f)


class TestCentroid:
    def test_symmetric_grid_lands_on_origin(self):
        assert_allclose(column_mean(grid_field(10.0, 1.0).positions), np.zeros(3),
                        atol=1e-12)

    def test_plain_average(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0], [1.0, 2.0, 0.0]])
        f = DisplacementField(pos, np.zeros((3, 3)), centered=True)
        assert_allclose(column_mean(f.positions), [1.0, 2.0, 2.0])


class TestSensorRegions:
    def test_cube_takes_full_grid(self):
        f = grid_field(10.0, 1.0)
        sel = select_sensor(f, SensorRegion.cube(10.0))
        assert sel.n == 1331

    def test_cube_subset_count(self):
        # edge 4 about the origin catches the 5^3 block of unit-step nodes
        sel = select_sensor(grid_field(10.0, 1.0), SensorRegion.cube(4.0))
        assert sel.n == 125
        assert np.max(np.abs(sel.positions)) <= 2.0 + BOUNDARY_TOL

    @pytest.mark.parametrize("axis,index", [("x", 0), ("y", 1), ("z", 2), (1, 1)])
    def test_square_layer_counts(self, axis, index):
        f = grid_field(10.0, 1.0)
        sel = select_sensor(f, SensorRegion.square(10.0, axis))
        assert sel.n == 121
        assert_allclose(sel.positions[:, index], 0.0, atol=BOUNDARY_TOL)

    def test_layer_at_offset_coordinate(self):
        sel = select_sensor(grid_field(10.0, 1.0),
                            SensorRegion.layer("x", 5.0, 0.5))
        assert sel.n == 121
        assert_allclose(sel.positions[:, 0], 5.0)

    def test_layer_spanning_three_planes(self):
        sel = select_sensor(grid_field(10.0, 1.0),
                            SensorRegion.layer("z", 0.0, 2.0))
        assert sel.n == 3 * 121

    def test_sphere_count_matches_direct_loop(self):
        f = grid_field(10.0, 1.0)
        region = SensorRegion.sphere(4.0)
        expected = sum(1 for p in f.positions
                       if np.linalg.norm(p) <= 4.0 + BOUNDARY_TOL)
        assert select_sensor(f, region).n == expected
        assert expected > 100  # sanity: ball of radius 4 holds many unit nodes

    def test_boundary_nodes_included(self):
        pos = np.array([[5.0, 0.0, 0.0], [5.0 + 1e-10, 0.0, 0.0],
                        [5.0 + 1e-6, 0.0, 0.0]])
        f = DisplacementField(pos, np.zeros((3, 3)), centered=True)
        keep = SensorRegion.cube(10.0).mask(f.positions)
        assert keep.tolist() == [True, True, False]

    def test_selection_preserves_node_order(self):
        f = random_field(n=100, seed=7)
        region = SensorRegion.sphere(4.0)
        sel = select_sensor(f, region)
        keep = region.mask(f.positions)
        assert_array_equal(sel.positions, f.positions[keep])
        assert_array_equal(sel.displacements, f.displacements[keep])

    def test_off_center_region(self):
        f = grid_field(10.0, 1.0)
        sel = select_sensor(f, SensorRegion.cube(2.0, center=(4.0, 4.0, 4.0)))
        assert sel.n == 27
        assert_allclose(column_mean(sel.positions), [4.0, 4.0, 4.0], atol=1e-12)

    def test_empty_selection_raises(self):
        with pytest.raises(EmptySelection):
            select_sensor(grid_field(10.0, 1.0),
                          SensorRegion.cube(1.0, center=(100.0, 0.0, 0.0)))

    def test_needs_centered_field(self):
        with pytest.raises(ValueError):
            select_sensor(grid_field(centered=False), SensorRegion.cube(10.0))

    @pytest.mark.parametrize("bad", ["w", 3, -1])
    def test_bad_axis_rejected(self, bad):
        with pytest.raises(ValueError):
            SensorRegion.square(10.0, bad)

    @pytest.mark.parametrize("bad", [True, False])
    def test_boolean_axis_rejected(self, bad):
        # bool is an int subclass: True would select axis y.
        with pytest.raises(InvalidArgument, match="axis"):
            SensorRegion.square(10.0, bad)

    def test_center_is_copied(self):
        c = np.zeros(3)
        region = SensorRegion.cube(10.0, c)
        c[0] = 5.0
        assert_array_equal(region.center, np.zeros(3))
        assert not region.center.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: SensorRegion.cube(v),
        lambda v: SensorRegion.square(v, "y"),
        lambda v: SensorRegion.layer("x", 0.0, v),
        lambda v: SensorRegion.layer("x", v, 1.0),
        lambda v: SensorRegion.sphere(v),
        lambda v: SensorRegion.sphere(1.0, center=(0.0, v, 0.0)),
    ], ids=["cube-edge", "square-edge", "layer-thickness", "layer-coordinate",
            "sphere-radius", "sphere-center"])
    def test_non_finite_sizes_rejected(self, make, value):
        with pytest.raises(InvalidArgument, match="finite"):
            make(value)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SensorRegion.cube(0.0)
        with pytest.raises(ValueError):
            SensorRegion.sphere(-1.0)
        with pytest.raises(ValueError):
            SensorRegion.layer("x", 0.0, 0.0)


def reference_write_field_csv(path, field, comments=()):
    """Per-value writer that write_field_csv must match byte for byte."""
    pos = field.positions
    if field.centered:
        pos = pos + field.reference_point
    with open(str(path), "w", encoding="utf-8", newline="\n") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write("x,y,z,dx,dy,dz\n")
        for p, d in zip(pos, field.displacements):
            handle.write(",".join(repr(float(v)) for v in (*p, *d)) + "\n")


def csv_write_cases():
    rng = np.random.default_rng(23)
    edge = np.array([[-0.0, 5e-324, 1e16], [1e22, -5e-324, 2.0 ** 53],
                     [0.1, 1.0 / 3.0, -1e-300], [1.7976931348623157e308, 1e15, 1e-5]])
    ints = np.arange(-9, 9).reshape(6, 3)
    big = _WRITE_BLOCK_ROWS + 17
    return {
        "random": DisplacementField(rng.uniform(995.0, 1005.0, (40, 3)),
                                    rng.normal(0.0, 1e-4, (40, 3))),
        "edge-values": DisplacementField(edge, edge[::-1] * -1.0),
        "integers": DisplacementField(ints, ints[::-1] * 1000),
        "centered": center_field(DisplacementField(
            rng.uniform(995.0, 1005.0, (30, 3)), rng.normal(0.0, 1e-4, (30, 3)),
            (1000.0, 0.0, 0.0))),
        "more-than-one-block": DisplacementField(
            rng.normal(0.0, 100.0, (big, 3)), rng.lognormal(-10.0, 5.0, (big, 3))),
    }


CSV_ROWS = [[1.0, 2.5, -3.0, 0.1, 1e-05, -0.0], [4.0, 5.0, 6.0, 1.5e-07, 2.0, 3.0]]


class TestCsv:
    @pytest.mark.parametrize("case", sorted(csv_write_cases()))
    def test_writer_matches_per_value_reference(self, tmp_path, case):
        f = csv_write_cases()[case]
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_field_csv(fast, f, comments=("a comment",))
        reference_write_field_csv(ref, f, comments=("a comment",))
        assert fast.read_bytes() == ref.read_bytes()
        back = read_field_csv(fast, f.reference_point)
        if f.centered:
            back = center_field(back)
        # tobytes also tells -0.0 from 0.0.
        assert back.positions.tobytes() == f.positions.tobytes()
        assert back.displacements.tobytes() == f.displacements.tobytes()

    @pytest.mark.parametrize("tail", ["", "# a comment between rows\r\n1,2,3,4,5,6\r\n",
                                      "1_000,2,3,4,5,6\r\n"])
    def test_digest_is_of_the_bytes_parsed(self, tmp_path, tail):
        # A file of many read chunks with a byte-order mark and CRLF line
        # ends.  A comment between rows, or a value that float() accepts
        # and np.loadtxt rejects, sends the parse to its line pass, which
        # opens the file again and reads it from the top: there is no seek
        # back.  The digest returned is of the pass that built the field.
        path = tmp_path / "field.csv"
        write_field_csv(path, csv_write_cases()["more-than-one-block"], comments=("c",))
        data = b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n") + tail.encode()
        path.write_bytes(data)
        field, digest = stiffid.field._read_field(path, (0.0, 0.0, 0.0), 1.0, True)
        assert digest == hashlib.sha256(data).hexdigest()
        assert stiffid.field._read_field(path, (0.0, 0.0, 0.0), 1.0)[1] is None
        plain = read_field_csv(path)
        assert field.positions.tobytes() == plain.positions.tobytes()
        assert field.displacements.tobytes() == plain.displacements.tobytes()
        assert field.n == _WRITE_BLOCK_ROWS + 17 + bool(tail)

    def test_digesting_handle_is_not_seekable(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_bytes(b"x,y,z,dx,dy,dz\n1,2,3,4,5,6\n")
        with stiffid.field._open_utf8(path, hashlib.sha256()) as handle:
            assert not handle.seekable() and not handle.buffer.raw.seekable()
            handle.readline()
            with pytest.raises(io.UnsupportedOperation):
                handle.buffer.raw.seek(0)

    def test_simulate_formats_the_node_positions_once(self, tmp_path, monkeypatch):
        # The six fields of one simulate call share one node layout, so
        # its position text is formatted once, block by block: 17**3 =
        # 4,913 nodes make two blocks.  Each file equals the reference.
        formatted = []
        original = stiffid.field._position_text

        def counted(positions):
            formatted.append(len(positions))
            return original(positions)

        monkeypatch.setattr(stiffid.field, "_position_text", counted)
        assert main(["simulate", "--edge", "16", "--sigma", "5.6e-5", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        assert formatted == [_WRITE_BLOCK_ROWS, 17 ** 3 - _WRITE_BLOCK_ROWS]
        cases = beam_load_cases(BeamSpec(), MeshPattern.cubic(16.0, 1.0), sigma=5.6e-5,
                                seed=3)
        ref = tmp_path / "ref.csv"
        for j, case in enumerate(cases):
            reference_write_field_csv(ref, case.field, comments=(
                f"synthetic cantilever experiment {case.source}",
                f"sigma=5.6e-05 mm, seed={3 + j}"))
            assert (tmp_path / f"field_{case.source}.csv").read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("body", [
        "1.0,2.5,-3.0,0.1,1e-05,-0.0\r\n4,5,6,1.5e-07,2,3\r\n",
        " 1.0 , 2.5,\t-3.0,0.1 ,1e-05,\t-0.0\t\n  4,5 ,6,1.5e-07,2,3\n",
        "1.0,2.5,-3.0,0.1,1e-05,-0.0\n4,5,6,1.5e-07,2,3\n\n\n",
        "1.0,2.5,-3.0,0.1,1e-05,-0.0\n\n4,5,6,1.5e-07,2,3",
        "1.0,2.5,-3.0,0.1,1e-05,-0.0\n# between rows\n4,5,6,1.5e-07,2,3\n",
        "1.0,2.5,-3.0,0.1,1e-05,-0.0\n \t \n4,5,6,1.5e-07,2,3\n  \n",
        "# after the header\r\n1.0,2.5,-3.0,0.1,1e-05,-0.0\r\n"
        "\t# indented\r\n4,5,6,1.5e-07,2,3\r\n",
    ], ids=["crlf", "spaces-tabs", "trailing-blank", "blank-between",
            "comment-between", "whitespace-between", "crlf-comments"])
    def test_fast_and_line_paths_agree(self, tmp_path, monkeypatch, body):
        path = tmp_path / "field.csv"
        path.write_bytes(("# c\nx,y,z,dx,dy,dz\n" + body).encode())
        fast = read_field_csv(path)

        def rejecting_loadtxt(*args, **kwargs):
            raise ValueError("forced onto the line loop")

        monkeypatch.setattr(np, "loadtxt", rejecting_loadtxt)
        slow = read_field_csv(path)
        expected = np.array(CSV_ROWS)
        for got in (fast, slow):
            assert got.positions.tobytes() == expected[:, :3].tobytes()
            assert got.displacements.tobytes() == expected[:, 3:].tobytes()

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        pos = rng.uniform(995.0, 1005.0, (40, 3))
        disp = rng.normal(0.0, 1e-4, (40, 3))
        f = DisplacementField(pos, disp, (1000.0, 0.0, 0.0))
        path = tmp_path / "field.csv"
        write_field_csv(path, f, comments=("unit test field",))
        back = read_field_csv(path, reference_point=(1000.0, 0.0, 0.0))
        assert_array_equal(back.positions, pos)
        assert_array_equal(back.displacements, disp)
        assert not back.centered

    def test_line_breaks_in_comments_stay_comments(self, tmp_path):
        f = DisplacementField(np.array(CSV_ROWS)[:, :3], np.array(CSV_ROWS)[:, 3:])
        path = tmp_path / "field.csv"
        write_field_csv(path, f, comments=("one\ntwo", "three\r\nfour", "five\rsix", ""))
        lines = path.read_bytes().decode().split("\n")
        assert lines[:8] == ["# one", "# two", "# three", "# four", "# five", "# six",
                             "# ", "x,y,z,dx,dy,dz"]
        back = read_field_csv(path)
        assert back.positions.tobytes() == f.positions.tobytes()
        assert back.displacements.tobytes() == f.displacements.tobytes()

    def test_centered_field_written_absolute(self, tmp_path):
        f = center_field(DisplacementField(
            np.array([[1001.0, 0.0, 0.0]]), np.array([[0.5, 0.0, 0.0]]),
            (1000.0, 0.0, 0.0)))
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        back = center_field(read_field_csv(path, (1000.0, 0.0, 0.0)))
        assert_array_equal(back.positions, f.positions)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# comment\n\nx,y,z,dx,dy,dz\n# another\n"
                        "1.0,2.0,3.0,0.1,0.2,0.3\n\n")
        f = read_field_csv(path)
        assert f.n == 1
        assert_allclose(f.displacements[0], [0.1, 0.2, 0.3])

    def test_metre_scale_applied_to_positions_and_reference(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,y,z,dx,dy,dz\n1.0,0.0,0.0,0.001,0.0,0.0\n")
        f = read_field_csv(path, reference_point=(1.0, 0.0, 0.0),
                           length_scale=1000.0)
        assert_allclose(f.positions[0], [1000.0, 0.0, 0.0])
        assert_allclose(f.displacements[0], [1.0, 0.0, 0.0])
        assert_allclose(f.reference_point, [1000.0, 0.0, 0.0])

    def test_overflow_in_mm_named_before_numpy_warns(self, tmp_path):
        # 1e306 m is 1e309 mm, which is not a finite double: in a value
        # read by the fast path, and in the reference point.
        path = tmp_path / "field.csv"
        path.write_text("x,y,z,dx,dy,dz\n0,0,0,0,1e306,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldFileError, match="non-finite value in data row 1"):
                read_field_csv(path, length_scale=1000.0)
            path.write_text("x,y,z,dx,dy,dz\n0,0,0,0,1,0\n")
            with pytest.raises(ValueError, match="reference_point contains non-finite"):
                read_field_csv(path, (1e306, 0.0, 0.0), 1000.0)

    def test_header_case_and_spacing_tolerated(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("X, Y, Z, DX, DY, DZ\n0,0,0,0,0,1\n")
        assert read_field_csv(path).n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FieldFileError) as err:
            read_field_csv(tmp_path / "nope.csv")
        assert err.value.line is None

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# hi\na,b,c\n")
        with pytest.raises(FieldFileError) as err:
            read_field_csv(path)
        assert err.value.line == 2

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,y,z,dx,dy,dz\n0,0,0,0,0,0\n1,2,three,0,0,0\n")
        with pytest.raises(FieldFileError) as err:
            read_field_csv(path)
        assert err.value.line == 3
        assert "three" in str(err.value)
        # '#' starts a comment only at the start of a line.
        path.write_text("x,y,z,dx,dy,dz\n0,0,0,0,0,0\n1,2,3,4,5,6 # note\n")
        with pytest.raises(FieldFileError) as err:
            read_field_csv(path)
        assert err.value.line == 3
        assert "# note" in str(err.value)

    def test_first_bad_line_is_reported(self, tmp_path):
        # One line loop reports every fault in file order: a non-finite
        # value on line 2 comes before a non-numeric one on line 3, and a
        # value that overflows only once scaled is reported at its line.
        path = tmp_path / "field.csv"
        path.write_text("x,y,z,dx,dy,dz\ninf,0,0,0,0,0\n1,2,three,0,0,0\n")
        with pytest.raises(FieldFileError, match="non-finite value in data row 1") as err:
            read_field_csv(path)
        assert err.value.line == 2
        path.write_text("x,y,z,dx,dy,dz\n0,0,0,0,0,0\n# c\n0,0,0,0,1e306,0\n")
        assert read_field_csv(path).displacements[1, 1] == 1e306
        with pytest.raises(FieldFileError, match="non-finite value in data row 2") as err:
            read_field_csv(path, length_scale=1000.0)
        assert err.value.line == 4

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,y,z,dx,dy,dz\n1,2,3,4,5\n")
        with pytest.raises(FieldFileError) as err:
            read_field_csv(path)
        assert err.value.line == 2

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        for text in ("x,y,z,dx,dy,dz\n", "x,y,z,dx,dy,dz\n\n  \n# c\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FieldFileError, match="no data rows"):
                    read_field_csv(path)

    @pytest.mark.parametrize("raw", [b"# caf\xe9\nx,y,z,dx,dy,dz\n0,0,0,0,0,0\n",
                                     b"x,y,z,dx,dy,dz\n0,0,0,0,0,0\n\xff"])
    def test_non_utf8_file_rejected(self, tmp_path, raw):
        # a bad byte in the header lines, or after the last data row
        path = tmp_path / "field.csv"
        path.write_bytes(raw)
        with pytest.raises(FieldFileError, match="not UTF-8") as err:
            read_field_csv(path)
        assert err.value.line is None

    @pytest.mark.parametrize("mid", ["", "# between rows\n"],
                             ids=["one-pass", "line-loop"])
    def test_byte_order_mark_skipped(self, tmp_path, mid):
        # Spreadsheet exports often start UTF-8 text with a byte-order
        # mark; lines still count from the first.  A comment between rows
        # sends the body to the line loop, which reads the file again from
        # the top, past the mark.
        path = tmp_path / "field.csv"
        text = f"# export\nx,y,z,dx,dy,dz\n0,0,0,0,0,1\n{mid}1,2,3,4,5,6\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        f = read_field_csv(path)
        assert_array_equal(f.positions, [[0, 0, 0], [1, 2, 3]])
        assert_array_equal(f.displacements, [[0, 0, 1], [4, 5, 6]])
        path.write_bytes(b"\xef\xbb\xbf" + text.replace("4,5,6", "4,nan,6").encode())
        with pytest.raises(FieldFileError, match="non-finite") as err:
            read_field_csv(path)
        assert err.value.line == 4 + bool(mid)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("")
        with pytest.raises(FieldFileError):
            read_field_csv(path)
