"""Rigid deflection estimators for nodal displacement fields.

Two routes recover the translation p and small rotation vector dphi of a
body from a centered displacement field:

* :func:`estimate_svd` fits the best orthogonal rotation matrix
  (orthogonal Procrustes via SVD) and reads angles off its entries, by
  one of the six readings named in ``ANGLE_READINGS``.
* :func:`estimate_lin` solves the linearized least-squares problem
  directly; only a 3x3 solve is involved.

Both are the one-row case of the batched fits :func:`_fit_lin` and
:func:`_fit_svd`, which run on many independent fields at once: the
identification core (:func:`stiffid.pipeline.identify_batch`) runs the
linearized fit, and the amplitude study runs both.  A batch holds S
fields with the same node count: displacements of shape (S, n, 3) and
positions of shape (n, 3), shared by every row, or (S, n, 3).  The
fit's arrays carry the leading S axis, and each row's numbers are
bit-identical to those of a one-row fit of that row alone: every stage
runs the same numpy operation (the same BLAS or LAPACK call) on each
row.  One Procrustes decomposition serves every angle reading it is
asked for: the fits of the readings share all but their rotation.

Every per-node array of a fit lives in component planes: the memory
is a C-contiguous (..., 3, n) array, and the fit hands it around as its
(..., n, 3) view ``a.swapaxes(-1, -2)`` (see :func:`_planes`).  Each
elementwise pass then runs along n contiguous values of one component
instead of n rows of three, and the products with the nodes are
``(3, 3) @ (3, n)`` instead of gemms with an inner dimension of 3.  The
shapes that callers see do not change.

Every 3x3 sum over the nodes (the moment matrix, the rotation
right-hand side and the Procrustes cross-covariance) is formed by
:func:`_gram`, as one ``(3, B) @ (B, 3)`` product per block of
B = ``_GRAM_BLOCK`` nodes.  OpenBLAS runs one gemm with an inner
dimension of n several times slower than the same sum over
cache-sized blocks: at n = 175,616, 1.12 ms against 0.38 ms (OpenBLAS
0.3.31, 2-core Xeon VM, median of 200 calls), and blocks of 4,096 to
32,768 nodes measured the same.  An identification of six such fields
on one mesh forms 7 of these sums, and each batch of refits after
outlier removal two more.  A field of at most one block gets the single
product, bit for bit.  The moment matrix sums the products of one
array with itself, and on one buffer numpy calls BLAS ``syrk``, which
OpenBLAS runs about 3x slower than ``gemm`` here; so :func:`_gram`
multiplies each block by a copy of that block, never of the whole
field, and gets ``gemm`` (at n = 175,616 on the same machine, 2.15
against 0.65 ms for the moment matrix).

The normal equations of a node layout are its :class:`FitGeometry`,
built by :func:`_fit_geometry` and nowhere else: the node count, the
centroid, and the rotation normal matrix with its inverse.  That matrix
comes from one ``rel.T @ rel`` product over the centroid-relative
positions ``rel``; its eigendecomposition is the degeneracy check and
gives the inverse.  :func:`_fit_geometry` returns ``rel`` beside the
geometry, and the fits take both, so whoever holds one layout builds
it once: shared positions give one geometry for all rows of a batch,
and the identification core builds one for all experiments on equal
node positions (the load cases of one mesh).  The refits after outlier
removal run on the survivors of each row, as batches of per-row
positions: one geometry for each batch of rows that keep the same node
count.

Both fits centre the displacements on their mean (:func:`_centred`).
The linearized fit then forms the rotation right-hand side from the
antisymmetric part of ``rel.T @ (displacements - mean displacement)``,
and the Procrustes fit its cross-covariance from ``rel.T @ (rel +
displacements - mean displacement)``.  Each fit keeps its geometry,
which holds no per-node array, so the deflection covariance follows
from it without another pass over the nodes.

Each node's squared residual |r|^2 (:func:`_node_score`) is what the
outlier cut reads, and the row sums of those scores are the residual
sums of squares that the noise estimate reads.  The linearized fit
forms them block by block: :func:`_lin_residuals`, the one place of
its residual formula ``d - q - dphi x r``, writes one block of
``_GRAM_BLOCK`` nodes at a time into a block-sized buffer, whose
scores go into the (S, n) score array.  One allocation per fit holds
the scores, the planes of d - q and that buffer.  So the fit holds no
(S, n, 3) residual array; :func:`estimate_lin` runs the same kernel
over the whole field for the residuals of its :class:`FitResult`.  At
n = 175,616 that spares writing a 4.2 MB array only to read |r|^2 back
out of it.  The Procrustes fit keeps its residuals ``rel + d - q - R
rel`` and scores them in one more pass.

Units: mm for translations, rad for rotation components.  The linearized
model `dp_i = dphi x p_i + p` is valid for small angles; a fit whose
`|dphi|` reaches ``ROTATION_WARN_LIMIT`` warns, once per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateGeometry,
    EntryOutOfRange,
    InvalidArgument,
    LinearizationWarning,
    NonFiniteDeflection,
    warn,
)
from .field import DisplacementField, column_mean

# Small-angle validity bound for the linearized model, rad (about 1 degree).
ROTATION_WARN_LIMIT = 0.0175

# Fewest nodes a rigid fit takes.
MIN_FIT_NODES = 3

# Relative eigenvalue / singular value floor below which the node layout is
# treated as degenerate (rotation unobservable about some axis).
DEGENERACY_RTOL = 1e-12

# Orthogonality tolerance for matrices accepted as rotations.
ORTHOGONALITY_TOL = 1e-9

# The error both fits raise when the residual sum of squares is not finite.
_RSS_OVERFLOW = "the residual sum of squares of the fit overflows"

# Nodes per block of the 3x3 node sums of _gram: a block of both
# operands' planes (384 KiB) stays in cache.  4,096 to 32,768 measured
# the same.
_GRAM_BLOCK = 8192


def skew(v) -> np.ndarray:
    """Cross-product matrix: ``skew(a) @ b == np.cross(a, b)``.

    `v` may carry leading axes, (..., 3) giving (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"skew needs 3-vectors, got shape {v.shape}")
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def rotation_xyz(angles) -> np.ndarray:
    """Product of elementary rotations Rx(ax) @ Ry(ay) @ Rz(az)."""
    ax, ay, az = np.asarray(angles, dtype=float)
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rx @ ry @ rz


def differential_rotation(angles) -> np.ndarray:
    """First-order rotation matrix I + skew(angles)."""
    return np.eye(3) + skew(angles)


def check_rotation(R: np.ndarray) -> None:
    """Raise ValueError unless R is orthogonal with determinant +1.

    `R` is one matrix (3, 3) or a stack (..., 3, 3), which fails if any
    of its matrices does.  A non-finite entry fails the check.
    """
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    if not (np.abs(R.swapaxes(-1, -2) @ R - np.eye(3)) <= ORTHOGONALITY_TOL).all():
        raise ValueError("matrix is not orthogonal within tolerance")
    if not (np.abs(np.linalg.det(R) - 1.0) <= ORTHOGONALITY_TOL).all():
        raise ValueError("matrix determinant is not +1 within tolerance")


# The readings of small rotation angles off a rotation matrix (see
# extract_angles), in the order of the amplitude study's rows.
ANGLE_READINGS = ("plus", "minus", "avg", "plus-asin", "minus-asin", "avg-asin")


def _asin(values: np.ndarray) -> np.ndarray:
    """``math.asin`` of each entry.  Entries may exceed 1 by roundoff for
    a matrix orthogonal within tol.  ``np.arcsin`` is not used: it
    differs from ``math.asin`` in the last bit for some inputs."""
    outside = np.abs(values) > 1.0 + ORTHOGONALITY_TOL
    if outside.any():
        raise EntryOutOfRange(
            f"rotation entry {values[outside][0]!r} outside the asin domain")
    clipped = np.clip(values, -1.0, 1.0).ravel().tolist()
    return np.array([math.asin(v) for v in clipped]).reshape(values.shape)


def extract_angles(R: np.ndarray, method: str = "avg") -> np.ndarray:
    """Extract the small rotation vector from a rotation matrix.

    Parameters
    ----------
    R : (3, 3) or (..., 3, 3) array
        Rotation matrix, or a stack of them (each orthogonal within
        ``ORTHOGONALITY_TOL``).
    method : str
        One of ``ANGLE_READINGS``: the entries above the diagonal
        (``plus``), the negated ones below it (``minus``) or their mean
        (``avg``), which halves the leading extraction error, each read
        as they are or through asin (``-asin``).

    Returns
    -------
    (3,) or (..., 3) array of angles in rad.  Each matrix of a stack
    gives the same bits as a call on that matrix alone.

    Raises
    ------
    InvalidArgument
        If `method` is not one of ``ANGLE_READINGS``.
    EntryOutOfRange
        For asin variants when an entry of any matrix falls outside the
        asin domain by more than roundoff.  Checked before orthogonality
        so a corrupt matrix fails with the specific error.
    ValueError
        If any matrix is not orthogonal with determinant +1.
    """
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    # A reading that is not a str (an array, say) is never compared.
    if not (isinstance(method, str) and method in ANGLE_READINGS):
        raise InvalidArgument(f"method must be one of {', '.join(map(repr, ANGLE_READINGS))}, "
                              f"got {method!r}")
    entries, _, asin = method.partition("-")
    plus = R[..., (2, 0, 1), (1, 2, 0)]
    minus = -R[..., (1, 2, 0), (2, 0, 1)]
    vals = {"plus": plus, "minus": minus, "avg": (plus + minus) / 2.0}[entries]
    if asin:
        vals = _asin(vals)
    check_rotation(R)
    return vals


@dataclass(frozen=True)
class Deflection:
    """Rigid deflection at the reference point: translation mm, rotation rad."""

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        r = np.asarray(self.rotation, dtype=float).reshape(3).copy()
        _check_deflections(t, r)
        t.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.translation, self.rotation])


def _check_deflections(translation: np.ndarray, rotation: np.ndarray) -> None:
    """Reject non-finite deflections with :class:`NonFiniteDeflection`
    (a ``ValueError``)."""
    if not (np.isfinite(translation).all() and np.isfinite(rotation).all()):
        raise NonFiniteDeflection("deflection components must be finite (a field "
                                  "value too large for the fit overflows)")


class FitGeometry(NamedTuple):
    """The normal equations of a node layout, which hold no displacement.

    ``n`` is the node count, ``centroid`` the mean position (mm) about
    which the fit runs, ``moment`` the rotation normal matrix
    sum(|r|^2 I - r r^T) over the centroid-relative positions r (mm^2)
    and ``inverse`` its inverse (1/mm^2).  Positions (n, 3) give one
    geometry; positions (S, n, 3) give the arrays a leading batch axis.
    It holds no per-node array, so a fit keeps it at no memory cost.
    """

    n: int
    centroid: np.ndarray
    moment: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """Estimated deflection plus per-node residuals of the fit, held as
    a read-only (n, 3) copy.

    ``geometry`` is the :class:`FitGeometry` of the fitted nodes; the
    estimators always set it.
    """

    deflection: Deflection
    residuals: np.ndarray
    objective: float
    geometry: FitGeometry | None = None

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        if r.ndim != 2 or r.shape[1] != 3:
            raise ValueError("residuals must have shape (n, 3)")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "residuals", r)
        object.__setattr__(self, "objective", float(self.objective))

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


class Fits(NamedTuple):
    """Batched rigid fits: row s of every array belongs to field s.

    ``geometry`` is the geometry the fits ran on, ``translation`` and
    ``rotation`` are (S, 3), ``residuals`` (S, n, 3), a view of planes,
    or None for linearized fits, which form their residuals block by
    block and keep none (see :func:`_lin_residuals`), ``score`` (S, n)
    each node's squared residual |r|^2 (see :func:`_node_score`) and
    ``objective`` (S,) its row sums, the residual sum of squares of
    each row.
    """

    geometry: FitGeometry
    translation: np.ndarray
    rotation: np.ndarray
    residuals: np.ndarray | None
    score: np.ndarray
    objective: np.ndarray


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.swapaxes(-1, -2) @ b`` for (..., n, 3) arrays, usually views of
    planes: the (..., 3, 3) sum over the nodes of a_i b_i^T, formed as
    one product per block of ``_GRAM_BLOCK`` nodes.

    The sum starts from the first block's product, so a field of at most
    one block gets that single product bit for bit (starting from 0.0
    would turn a -0.0 into +0.0).

    When `b` is `a` (the scatter of :func:`moment_matrix`), each block
    is multiplied by a copy of that block: on one buffer numpy calls
    BLAS ``syrk``, which OpenBLAS 0.3.31 runs about 3x slower than
    ``gemm`` on these (3, B) @ (B, 3) products (2-core Xeon VM, at
    n = 175,616: 2.15 against 0.65 ms for the whole sum).  The copy is
    one block, never the whole field, and the result equals that of `a`
    and a distinct copy of it, bit for bit.
    """
    at = a.swapaxes(-1, -2)

    def block(start: int) -> np.ndarray:
        part = b[..., start:start + _GRAM_BLOCK, :]
        return part.copy(order="K") if b is a else part

    total = at[..., :_GRAM_BLOCK] @ block(0)
    for start in range(_GRAM_BLOCK, a.shape[-2], _GRAM_BLOCK):
        total += at[..., start:start + _GRAM_BLOCK] @ block(start)
    return total


def moment_matrix(positions: np.ndarray) -> np.ndarray:
    """Rotation normal matrix sum(|p|^2 I - p p^T) of a point set, mm^2.

    `positions` may carry leading axes, (..., n, 3) giving (..., 3, 3).
    The scatter sum(p p^T) is ``_gram(p, p)``, which copies one block of
    `p` at a time so that BLAS runs ``gemm``, not the slower ``syrk``
    (2.15 against 0.65 ms at n = 175,616); no full-size copy is made.
    """
    p = np.asarray(positions, dtype=float)
    scatter = _gram(p, p)
    trace = scatter.trace(axis1=-2, axis2=-1)
    return trace[..., None, None] * np.eye(3) - scatter


def _require_centered(field: DisplacementField, who: str) -> None:
    if not field.centered:
        raise ValueError(f"{who} needs a field centered on its reference point")


def _planes(a: np.ndarray) -> np.ndarray:
    """`a` (..., n, 3) as the (..., n, 3) view of C-contiguous component
    planes (..., 3, n); an array already held that way comes back as it
    is, without a copy."""
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _fit_geometry(positions: np.ndarray) -> tuple[FitGeometry, np.ndarray]:
    """Build the fit geometry of node positions (n, 3) or (S, n, 3), and
    return it with the centroid-relative positions, held in planes (see
    :func:`_planes`), which the fits on that geometry take.

    Raises
    ------
    DegenerateGeometry
        If the layout has fewer than 3 nodes or the rotation normal
        matrix of any row is numerically singular (rotation unobservable
        about some axis) or overflows.
    """
    n = positions.shape[-2]
    if n < MIN_FIT_NODES:
        raise DegenerateGeometry(
            f"a rigid fit needs at least {MIN_FIT_NODES} nodes, got {n}")
    positions = _planes(positions)
    # Positions too large for the moment matrix give inf or nan, which the
    # check below names; numpy's warning on the way is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        c = column_mean(positions)
        rel = positions - c[..., None, :]
        m = moment_matrix(rel)
    if not np.isfinite(m).all():
        raise DegenerateGeometry("node positions overflow the rotation normal matrix")
    eig, vec = np.linalg.eigh(m)
    if (eig[..., 0] <= DEGENERACY_RTOL * m.trace(axis1=-2, axis2=-1)).any():
        raise DegenerateGeometry(
            "rotation normal matrix is singular for this node layout")
    inverse = (vec / eig[..., None, :]) @ vec.swapaxes(-1, -2)
    return FitGeometry(n, c, m, inverse), rel


def _centred(displacements: np.ndarray, out: np.ndarray | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """The mean displacement q (S, 3) of a batch of fields (S, n, 3) and
    the displacements relative to it, d - q, in planes: written into
    `out`, the (S, n, 3) view of planes (S, 3, n), if given.

    `displacements` is in planes or rows: rows, which only arrays handed
    to ``identify_batch`` directly can be, are copied into planes here,
    once per fit.  Centering the displacements as well as the positions
    keeps the node sums free of the summation error of sum(r) times q,
    which would otherwise leak into structural zeros of noise-free fields.
    """
    displacements = _planes(displacements)
    # A displacement that is not finite, or whose sum overflows, is named
    # by the fit's checks; numpy's warning on the way is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        q = column_mean(displacements)
        return q, np.subtract(displacements, q[..., None, :], out=out)


def _node_score(residuals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each node's squared residual |r|^2, (..., n), from residuals
    (..., n, 3), written into `out` if given: one pass over their
    planes, copied into planes first only if they are held as rows, so
    that planes and rows give the same bits.  An overflow gives inf,
    which the caller names."""
    planes = _planes(residuals).swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        return np.einsum("...kn,...kn->...n", planes, planes, out=out)


def _node_blocks(n: int):
    """The slices of the blocks of ``_GRAM_BLOCK`` nodes that cover `n`
    nodes.  A last block of one node joins the block before it: numpy
    multiplies by one column with BLAS ``gemv``, whose bits differ from
    those of ``gemm`` on the same column."""
    for start in range(0, n - 1, _GRAM_BLOCK):
        yield slice(start, n if n - start <= _GRAM_BLOCK + 1 else start + _GRAM_BLOCK)


def _lin_residuals(spin: np.ndarray, rel: np.ndarray, disp_rel: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The residuals d - q - dphi x r of linearized fits of m nodes,
    written into the planes `out` (S, 3, m) and returned as their
    (S, m, 3) view.  `spin` (S, 3, 3) is skew(dphi), and `rel` and
    `disp_rel` are (..., m, 3) views of the nodes' centroid-relative
    positions and displacements d - q.  Every column of the product
    has the bits of the same column of a product over the whole field,
    so blocks of two or more nodes give the whole field's residuals."""
    np.matmul(spin, rel.swapaxes(-1, -2), out=out)
    np.subtract(disp_rel.swapaxes(-1, -2), out, out=out)
    return out.swapaxes(-1, -2)


def _lin_fit_residuals(fits: Fits, rel: np.ndarray, displacements: np.ndarray,
                       ) -> np.ndarray:
    """The residuals (S, n, 3), a view of new planes, of the linearized
    fits `fits` of `displacements` on the relative positions `rel`:
    :func:`_lin_residuals` over the whole field, with the bits of the
    fit's own blocks."""
    _, disp_rel = _centred(displacements)
    return _lin_residuals(skew(fits.rotation), rel, disp_rel,
                          np.empty(disp_rel.shape[:-2] + (3, disp_rel.shape[-2])))


def _fits(geometry: FitGeometry, translation: np.ndarray, rotation: np.ndarray,
          residuals: np.ndarray | None, score: np.ndarray) -> Fits:
    """The checked fits of a batch.  `rotation` is (S, 3), or (K, S, 3)
    for K angle readings of one decomposition (see :func:`_fit_svd`)."""
    _check_deflections(translation, rotation)
    # The residual sums of squares: one pass over the node scores.  An
    # overflow is named below, not by numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        objective = score.sum(axis=-1)
    if not np.isfinite(objective).all():
        raise NonFiniteDeflection(_RSS_OVERFLOW)
    # One warning for each row (of each reading) whose rotation leaves the
    # small-angle regime.
    norms = np.sqrt(np.einsum("...i,...i->...", rotation, rotation)).ravel()
    for norm in norms[norms >= ROTATION_WARN_LIMIT].tolist():
        warn(f"rotation magnitude {norm:.3g} rad exceeds the small-angle "
             f"regime ({ROTATION_WARN_LIMIT} rad)", LinearizationWarning)
    return Fits(geometry, translation, rotation, residuals, score, objective)


def _fit_result(fits: Fits, residuals: np.ndarray) -> FitResult:
    """The one row of a fit of one field on a geometry without a batch
    axis, with its residuals (1, n, 3), as a :class:`FitResult`."""
    return FitResult(Deflection(fits.translation[0], fits.rotation[0]),
                     residuals[0], fits.objective[0], fits.geometry)


def _fit_svd(geometry: FitGeometry, rel: np.ndarray, displacements: np.ndarray,
             readings: Sequence[str]) -> dict[str, Fits]:
    """Orthogonal Procrustes fits of a batch of fields on `geometry` and
    its relative positions `rel`; see :func:`estimate_svd` and, for the
    shapes, :func:`_centred`.

    Each row is decomposed once, and the fits are keyed by the names of
    ``ANGLE_READINGS`` in `readings`, each of which reads its angles off
    the same rotation matrices.  They share the translation, residuals,
    node scores and objective, and each equals a fit of its reading
    alone bit for bit.
    """
    q, disp_rel = _centred(displacements)
    with np.errstate(over="ignore", invalid="ignore"):  # named just below
        moved_rel = rel + disp_rel
        cross = _gram(rel, moved_rel)
    if not np.isfinite(cross).all():
        raise NonFiniteDeflection("displacements overflow the Procrustes fit")
    U, s, Vt = np.linalg.svd(cross)
    V, Ut = Vt.swapaxes(-1, -2), U.swapaxes(-1, -2)
    flip = np.zeros(cross.shape)
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ flip @ Ut
    degenerate = ((s[..., 0] <= 0.0) | (s[..., 1] <= DEGENERACY_RTOL * s[..., 0])).any()
    # p + d - R p - translation, taken about the centroid
    res = moved_rel - (R @ rel.swapaxes(-1, -2)).swapaxes(-1, -2)
    if degenerate:
        # One displacement that dwarfs the others makes the cross-covariance
        # rank 1: name the overflow it causes, as the lin fit does.
        if not np.isfinite(np.vdot(res, res)):
            raise NonFiniteDeflection(_RSS_OVERFLOW)
        raise DegenerateGeometry(
            "displaced nodes are collinear, the rotation is not determined")
    translation = q - ((R - np.eye(3)) @ geometry.centroid[..., None])[..., 0]
    fits = _fits(geometry, translation, np.stack([extract_angles(R, m) for m in readings]),
                 res, _node_score(res))
    return {m: fits._replace(rotation=rotation) for m, rotation in zip(readings, fits.rotation)}


def _fit_lin(geometry: FitGeometry, rel: np.ndarray, displacements: np.ndarray) -> Fits:
    """Linearized least-squares fits of a batch of fields on `geometry`
    and its relative positions `rel`; see :func:`estimate_lin` and, for
    the shapes, :func:`_centred`."""
    # One allocation holds the node scores (S, n), the planes (S, 3, n)
    # of d - q and the block buffer, so it lives as long as the scores,
    # and a study's next fit reuses its pages: freeing two block-sized
    # arrays together let glibc hand them back to the kernel, and fault
    # them in again for the next fit (see synthetic.run_noise_study).
    rows, n = displacements.shape[:2]
    work = np.empty(rows * (4 * n + 3 * min(n, _GRAM_BLOCK + 1)))
    score = work[:rows * n].reshape(rows, n)
    q, disp_rel = _centred(displacements, out=work[rows * n:rows * 4 * n]
                           .reshape(rows, 3, n).swapaxes(-1, -2))
    buffer = work[rows * 4 * n:]
    # A deflection that is not finite is named by _fits; numpy's warning
    # on the way is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gram(rel, disp_rel)
        rhs = (g - g.swapaxes(-1, -2))[..., (1, 2, 0), (2, 0, 1)]
        rotation = (geometry.inverse @ rhs[..., None])[..., 0]
        spin = skew(rotation)
        translation = q - (spin @ geometry.centroid[..., None])[..., 0]
        # Each block's residuals go into the block buffer, and only their
        # scores into the array over the nodes.
        for nodes in _node_blocks(n):
            block = buffer[:rows * 3 * (nodes.stop - nodes.start)].reshape(rows, 3, -1)
            _node_score(_lin_residuals(spin, rel[..., nodes, :], disp_rel[..., nodes, :],
                                       block), out=score[:, nodes])
    return _fits(geometry, translation, rotation, None, score)


def estimate_svd(field: DisplacementField, method: str = "avg") -> FitResult:
    """Fit a rigid transform with the orthogonal Procrustes estimator.

    The cross-covariance of mean-removed initial and displaced positions
    is decomposed by SVD; a reflection, if it appears, is corrected by
    negating the smallest singular direction so the result is a proper
    rotation.  Angles are then read off the matrix entries by `method`,
    one of ``ANGLE_READINGS`` (see :func:`extract_angles`), and the
    translation at the reference point is moved from the centroid c with
    the finite rotation, ``p = q - (R - I) c``.

    That is exact on fields that move rigidly through a finite rotation.
    On fields that move linearly, ``d = p + dphi x r`` (a linear-static
    FE export, or ``stiffid simulate``), the best rotation matrix differs
    from ``I + [dphi]x`` by ``1/2 [dphi]x^2``: that term of each
    position stays in the residuals, so a noise level pooled from them
    reads high (about 35% on ``stiffid simulate --sigma 5.6e-5``
    fields), and ``1/2 [dphi]x^2 c`` enters the translation of a sensor
    off its reference point.  ``stiffid identify`` fits the linearized
    model (:func:`estimate_lin`); this estimator serves the per-field
    comparison of the amplitude study.

    Raises
    ------
    InvalidArgument
        If `method` is not one of ``ANGLE_READINGS``.
    DegenerateGeometry
        If the rotation normal matrix is numerically singular or
        overflows, or the cross-covariance has rank < 2.
    NonFiniteDeflection
        If the displacements overflow the fit or its residual sum of
        squares (a ``ValueError``).
    """
    _require_centered(field, "estimate_svd")
    fits = _fit_svd(*_fit_geometry(field.positions), field.displacements[None],
                    (method,))[method]
    return _fit_result(fits, fits.residuals)


def estimate_lin(field: DisplacementField) -> FitResult:
    """Fit the linearized rigid model by least squares.

    The solve runs about the field centroid, which decouples translation
    and rotation: the rotation is the inverse of the rotation normal
    matrix (the field's :class:`FitGeometry`) times the right-hand side
    sum(r x (d - q)) over the centroid-relative positions r, with q the
    mean displacement, and the translation is then transported back to
    the reference point via ``p = q - dphi x c`` where c is the centroid.

    Raises
    ------
    DegenerateGeometry
        If the rotation normal matrix is numerically singular or
        overflows.
    NonFiniteDeflection
        If the displacements overflow the fit or its residual sum of
        squares (a ``ValueError``).
    """
    _require_centered(field, "estimate_lin")
    geometry, rel = _fit_geometry(field.positions)
    displacements = field.displacements[None]
    fits = _fit_lin(geometry, rel, displacements)
    return _fit_result(fits, _lin_fit_residuals(fits, rel, displacements))
