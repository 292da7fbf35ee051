"""Displacement fields sampled at mesh nodes, and virtual sensor regions.

All coordinates and displacements are stored in millimetres.  A field is
"centered" once node positions are expressed relative to the reference
point at which the deflection is reported; estimators require centered
fields.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as _field

import numpy as np

from .errors import (
    AlreadyCentered,
    EmptySelection,
    FieldFileError,
    InvalidArgument,
)

# Boundary nodes of a sensor region count as inside within this tolerance (mm).
BOUNDARY_TOL = 1e-9

_AXES = {"x": 0, "y": 1, "z": 2}

CSV_HEADER = ("x", "y", "z", "dx", "dy", "dz")

# write_field_csv formats this many rows per string; it bounds the
# temporary list and text on million-node exports.
_WRITE_BLOCK_ROWS = 4096
_ROW_FORMAT = "%r,%r,%r,%r,%r,%r\n"


def _as_points(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


@dataclass(frozen=True)
class DisplacementField:
    """Nodal positions and displacements of one loading experiment.

    Parameters
    ----------
    positions : (n, 3) array
        Node coordinates, mm.
    displacements : (n, 3) array
        Nodal displacement vectors, mm.
    reference_point : (3,) array
        Point at which the body deflection is reported, mm.
    centered : bool
        True once positions are relative to the reference point.

    The field holds read-only copies of its arrays.  `positions` and
    `displacements` are (n, 3) views of C-contiguous component planes
    (3, n), the layout the fits work on (see
    :func:`stiffid.estimation._planes`), so identifying a field copies
    neither of them again.
    """

    positions: np.ndarray
    displacements: np.ndarray
    reference_point: np.ndarray = _field(default_factory=lambda: np.zeros(3))
    centered: bool = False

    def __post_init__(self):
        pos = _as_points(self.positions, "positions")
        disp = _as_points(self.displacements, "displacements")
        if pos.shape != disp.shape:
            raise ValueError("positions and displacements must have equal shape")
        ref = np.asarray(self.reference_point, dtype=float).reshape(3)
        if not np.isfinite(ref).all():
            raise ValueError("reference_point contains non-finite values")
        for name, arr in (("positions", pos), ("displacements", disp),
                          ("reference_point", ref)):
            # The one copy of each array is made in component planes.
            arr = arr.T.copy().T
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def center_field(field: DisplacementField) -> DisplacementField:
    """Shift node positions so they are relative to the reference point.

    Displacements are untouched.  The reference point is kept for
    provenance.  Centering twice raises :class:`AlreadyCentered`.
    """
    if field.centered:
        raise AlreadyCentered("field is already centered on its reference point")
    return DisplacementField(
        field.positions - field.reference_point,
        field.displacements,
        field.reference_point,
        centered=True,
    )


def column_mean(a: np.ndarray) -> np.ndarray:
    """Mean of the rows of an (n, 3) array, or of each (n, 3) slice of an
    (..., n, 3) array.

    The fits pass the (..., n, 3) view of component planes (see
    :func:`stiffid.estimation._planes`), so ``einsum`` sums each
    component's n contiguous values.  It also reads a C-ordered (n, 3)
    array in one pass, where ``mean(axis=0)`` would reduce along the
    strided axis, several times slower on large fields.
    """
    return np.einsum("...ij->...j", a) / a.shape[-2]


def axis_index(axis: int | str) -> int:
    """Coordinate index of an axis given as 'x'/'y'/'z' (any case) or 0/1/2.

    Raises :class:`InvalidArgument` (a ``ValueError``) for anything else,
    ``True`` and ``False`` included.
    """
    if isinstance(axis, str):
        try:
            return _AXES[axis.lower()]
        except KeyError:
            raise InvalidArgument(f"axis must be one of x, y, z, got {axis!r}") from None
    # bool is an int subclass: True would select axis 1.
    if isinstance(axis, bool) or axis not in (0, 1, 2):
        raise InvalidArgument(f"axis index must be 0, 1 or 2, got {axis!r}")
    return int(axis)


@dataclass(frozen=True)
class SensorRegion:
    """Box or ball selecting the nodes of a virtual sensor.

    A box holds the nodes within ``half[i]`` of `center` along each axis
    i, with ``inf`` along an axis it does not bound; a ball (`half`
    None) holds the nodes within `radius` of `center`.  Construct
    through :meth:`cube`, :meth:`square`, :meth:`layer` or
    :meth:`sphere`.  Coordinates are relative to the reference point of
    the (centered) field the region is applied to.  Boundary nodes are
    inside within ``BOUNDARY_TOL``.  The region holds read-only copies
    of its arrays.
    """

    shape: str
    center: np.ndarray
    half: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        for name in ("center", "half"):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=float).reshape(3)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if not np.isfinite(self.center).all():
            raise InvalidArgument(
                f"{self.shape} center must be finite, got {self.center.tolist()}")

    @classmethod
    def cube(cls, edge: float, center=(0.0, 0.0, 0.0)) -> "SensorRegion":
        return cls("cube", center, np.full(3, _size(edge, "cube edge") / 2))

    @classmethod
    def square(cls, edge: float, axis: int | str, center=(0.0, 0.0, 0.0)) -> "SensorRegion":
        """Planar square sensor of zero thickness, normal to `axis`."""
        half = np.full(3, _size(edge, "square edge") / 2)
        half[axis_index(axis)] = 0.0
        return cls("square", center, half)

    @classmethod
    def layer(cls, axis: int | str, coordinate: float, thickness: float) -> "SensorRegion":
        """Slab of nodes with the `axis` coordinate near `coordinate`,
        unbounded along the other two axes."""
        thickness = _size(thickness, "layer thickness")
        ax = axis_index(axis)
        half, center = np.full(3, np.inf), np.zeros(3)
        half[ax], center[ax] = thickness / 2, coordinate
        return cls("layer", center, half)

    @classmethod
    def sphere(cls, radius: float, center=(0.0, 0.0, 0.0)) -> "SensorRegion":
        return cls("sphere", center, radius=_size(radius, "sphere radius"))

    def mask(self, positions: np.ndarray) -> np.ndarray:
        """Boolean inclusion mask for an (n, 3) position array."""
        rel = positions - self.center
        if self.half is None:
            return np.linalg.norm(rel, axis=1) <= self.radius + BOUNDARY_TOL
        return np.all(np.abs(rel) <= self.half + BOUNDARY_TOL, axis=1)


def _size(value: float, name: str) -> float:
    """A region size as a float; raises :class:`InvalidArgument` unless it
    is positive and finite."""
    if not 0.0 < value < math.inf:
        raise InvalidArgument(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def select_sensor(field: DisplacementField, region: SensorRegion) -> DisplacementField:
    """Restrict a centered field to the nodes inside a sensor region.

    Node order is preserved.  Raises :class:`EmptySelection` when no node
    falls inside the region.
    """
    if not field.centered:
        raise ValueError("select_sensor needs a centered field")
    keep = region.mask(field.positions)
    if not np.any(keep):
        raise EmptySelection(f"no nodes inside {region.shape} sensor region")
    return DisplacementField(
        field.positions[keep],
        field.displacements[keep],
        field.reference_point,
        centered=True,
    )


def read_field_csv(path, reference_point=(0.0, 0.0, 0.0),
                   length_scale: float = 1.0) -> DisplacementField:
    """Read a nodal field from CSV with columns x,y,z,dx,dy,dz.

    Blank lines may appear anywhere; lines whose first non-blank
    character is '#' are comments and skipped (a '#' after a value is an
    error).  The first other line must be the header, compared case-
    and space-insensitively; every further line holds exactly six
    comma-separated finite numbers.  The file must be UTF-8 text, with
    or without a byte-order mark.
    Errors carry the file's line number where there is one.
    `length_scale` converts the file's length unit to mm (1000.0 for
    metres).  The returned field is not centered.

    The body is parsed by one ``np.loadtxt`` call, which converts text
    to floats exactly as ``float()`` does.  Files it rejects (a bad
    value, or comment and whitespace-only lines between rows) and files
    with a value that is not finite after scaling are read again line by
    line, which accepts the comment and blank lines and reports the line
    of the first bad value.
    """
    path = str(path)
    try:
        handle = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise FieldFileError(path, None, str(exc)) from exc
    try:
        with handle:
            header_line = _read_header(handle, path)
            body = handle.tell()
            try:
                with warnings.catch_warnings():
                    # An empty body warns "input contained no data"; the line
                    # loop below reports it as an error instead.
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = np.empty((0, 0))
            data = data * length_scale
            if data.shape[1] != 6 or not len(data) or not np.isfinite(data).all():
                handle.seek(body)
                data = _read_rows(handle, path, header_line + 1, length_scale)
    except UnicodeDecodeError as exc:
        # np.loadtxt reports it as a ValueError, so the line loop meets it.
        raise FieldFileError(path, None, f"not UTF-8 text: {exc.reason}") from None
    ref = np.asarray(reference_point, dtype=float) * length_scale
    return DisplacementField(data[:, :3], data[:, 3:], ref, centered=False)


def _read_header(handle, path: str) -> int:
    """Consume the leading blank and comment lines and the header line of
    a field CSV; return the header's line number."""
    for lineno, raw in enumerate(iter(handle.readline, ""), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if tuple(p.strip().lower() for p in line.split(",")) != CSV_HEADER:
            raise FieldFileError(
                path, lineno, f"expected header {','.join(CSV_HEADER)}, got {line!r}")
        return lineno
    raise FieldFileError(path, None, "missing header line")


def _read_rows(handle, path: str, first_line: int, length_scale: float) -> np.ndarray:
    """Parse the data lines of a field CSV one by one, from line number
    `first_line` on, and scale each value by `length_scale`; raise
    :class:`FieldFileError` at the first bad line."""
    rows = []
    for lineno, raw in enumerate(handle, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise FieldFileError(path, lineno,
                                 f"expected 6 columns, got {len(parts)}")
        try:
            row = [float(p) * length_scale for p in parts]
        except ValueError:
            raise FieldFileError(path, lineno,
                                 f"non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise FieldFileError(path, lineno,
                                 f"non-finite value in data row {len(rows) + 1}")
        rows.append(row)
    if not rows:
        raise FieldFileError(path, None, "no data rows")
    return np.asarray(rows, dtype=float)


def write_field_csv(path, field: DisplacementField, comments=()) -> None:
    """Write a field to CSV (mm).  Centered fields are written with
    absolute coordinates so the file round-trips through
    :func:`read_field_csv` plus :func:`center_field`.

    Each value is written as ``repr`` of the float, the shortest text
    that parses back to the same double, so values round-trip bit for
    bit.  Rows are formatted in blocks of ``_WRITE_BLOCK_ROWS``.
    """
    pos = field.positions
    if field.centered:
        pos = pos + field.reference_point
    table = np.hstack((pos, field.displacements))
    with open(str(path), "w", encoding="utf-8", newline="\n") as handle:
        for comment in comments:
            # One `#` line per line of the comment, so a line break in it
            # cannot start a line the reader takes for the header.
            for line in comment.splitlines() or [""]:
                handle.write(f"# {line}\n")
        handle.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(table), _WRITE_BLOCK_ROWS):
            block = table[start:start + _WRITE_BLOCK_ROWS]
            handle.write(_ROW_FORMAT * len(block) % tuple(block.ravel().tolist()))
