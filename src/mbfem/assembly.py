"""Galerkin assembly on the fixed domain.

Builds the time-independent operators of the weak form in banded storage:
mass, stiffness, the two convection pieces, and the weights of the
nonlocal functional.  The time-dependent convection matrix is recovered
exactly as

    C(t) = (alpha'(t) / gamma(t)) * conv_const + (gamma'(t) / gamma(t)) * conv_linear

because b1(y, t) is affine in y, so nothing but the load vector is
re-assembled during time stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbsv, dgtsv

from .discretization import FESpace, sample

__all__ = [
    "BandedMatrix",
    "OperatorSet",
    "assemble_static",
    "assemble_load",
    "nonlocal_value",
    "diffusion_scalar",
]


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix in LAPACK band layout.

    data[kb + i - j, j] holds entry (i, j) for |i - j| <= kb; the unused
    corners of `data` may hold anything, since neither `matvec` nor `solve`
    lets them reach a result.
    """

    data: np.ndarray  # (2 * kb + 1, n)
    kb: int           # half bandwidth

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x by BLAS `dgbmv`.  scipy's wrapper rejects fewer than 2kb + 1
        rows, so the product is formed with max(n, 2kb + 1) rows and cut to
        n; the extra rows read only the unused lower corner of `data`.
        `dgbmv` reads column-major storage, so a `data` that is not in
        Fortran order is copied on every call."""
        kb, n = self.kb, self.n
        return dgbmv(max(n, 2 * kb + 1), n, kb, kb, 1.0, self.data, x)[:n]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution x of A x = rhs by LAPACK: tridiagonal `dgtsv` for
        kb == 1 and n >= 2 (it rejects n == 1), banded LU `dgbsv` otherwise.

        An exactly singular system is a LinAlgError naming the first zero
        pivot LAPACK met.  Neither `data` nor `rhs` is modified.
        """
        kb, n = self.kb, self.n
        if n == 0:
            return np.empty(0)
        if kb == 1 and n > 1:
            a = self.data
            *_, x, info = dgtsv(a[2, :-1], a[1], a[0, 1:], rhs)
        else:
            # gbsv needs kb spare rows above the band for the fill-in of
            # row pivoting; Fortran order lets it factor in place
            ab = np.zeros((3 * kb + 1, n), order="F")
            ab[kb:] = self.data
            *_, x, info = dgbsv(kb, kb, ab, rhs, overwrite_ab=True)
        if info > 0:
            raise LinAlgError(f"zero pivot at unknown {info} of {n}")
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
        return x


def _element_entries(v: np.ndarray, k: int) -> np.ndarray:
    """The (k + 1, (len(v) - 1) // k) view of `v` whose entry [r, e] is
    v[e k + r]: row r holds local dof r of every degree-k element of a
    vector of elements laid end to end."""
    s = v.strides[0]
    return as_strided(v, (k + 1, (len(v) - 1) // k), (s, k * s))


def _entry_planes(k: int) -> list[tuple[int, int]]:
    """(R, c) of every plane of the degree-k element-entry store, in order:
    band row R at the columns j with j mod k = c.  The vertex columns
    (c = 0) come first with all 2k + 1 rows, then each interior residue
    c = 1 .. k - 1 with rows k - c .. 2k - c, the only rows an element
    block reaches there: k (k + 2) planes in all."""
    return [(r, 0) for r in range(2 * k + 1)] + [(r, c) for c in range(1, k) for r in range(k - c, 2 * k - c + 1)]


def _gather_entries(band: np.ndarray) -> np.ndarray:
    """The element-entry store of `band`, a (2k + 1, ..., m k) band of
    degree-k elements laid end to end from column 0 (any leading axes
    between the band rows and the columns are kept): a new
    (k (k + 2), ..., m) array whose plane p = (R, c) of `_entry_planes`
    holds band entry (R, f k + c) in slot f.  Entry (r, c) of the element
    block starting at column e k is then slot e of plane (k + r - c, c) for
    c < k, and slot e + 1 of plane (r, 0) for c = k, so every block entry is
    one contiguous row over the elements and the vertex diagonals two
    elements share are one slot of plane (k, 0).  Band entries outside
    every element block are not kept."""
    k = (band.shape[0] - 1) // 2
    planes = _entry_planes(k)
    store = np.empty((len(planes), *band.shape[1:-1], band.shape[-1] // k))
    for p, (r, c) in enumerate(planes):
        store[p] = band[r, ..., c::k]
    return store


def _scatter_entries(store: np.ndarray, band: np.ndarray) -> None:
    """Write the element-entry store back into `band`, the inverse of
    `_gather_entries`: every kept entry takes its place, and every entry
    the store does not keep is +0.0."""
    k = (band.shape[0] - 1) // 2
    band.fill(0.0)
    for p, (r, c) in enumerate(_entry_planes(k)):
        band[r, ..., c::k] = store[p]


def _element_blocks(store: np.ndarray, k: int) -> list[np.ndarray]:
    """Views of the element blocks of a flat (k (k + 2), S) element-entry
    store, whose S slots hold E = S - 1 degree-k elements: blocks[c] is the
    (k + 1, E) view whose row r is entry (r, c) of every element block,
    contiguous along the elements.  For c < k the rows are the k + 1
    planes of residue c from row k - c, consecutive in the store; for
    c = k they are planes (0, 0) .. (k, 0), one slot on."""
    firsts = [k] + [2 * k + 1 + (c - 1) * (k + 1) for c in range(1, k)]
    return [store[f : f + k + 1, :-1] for f in firsts] + [store[: k + 1, 1:]]


def _eliminate_interiors(blocks: list[np.ndarray], b: np.ndarray, work: np.ndarray) -> None:
    """First half of a static condensation of a band of E degree-k
    Lagrange elements laid end to end, held as the `_element_blocks`
    views `blocks` of its element-entry store: eliminate the k - 1
    interior dofs of every element.  b is the (k + 1, E) `_element_entries`
    view of the right-hand side, which the caller makes once for all the
    condensations of one vector, as it makes `blocks`.

    The elimination runs without pivoting, one local pivot at a time over
    all E elements at once: entry (r, c) of every element block is the
    contiguous row blocks[c][r], and only the vertex diagonals are shared
    between elements, one slot of one plane, so they receive their
    subtractions in the order the band layout gives them.  It needs
    nonsingular element blocks, which a positive-definite symmetric part
    of the matrix guarantees.  An element whose interior meets its
    vertices in no entry has multipliers 0 and changes no entry another
    element reads.

    Afterwards planes (0, 0), (k, 0) and (2k, 0) at the vertex slots hold
    the tridiagonal Schur complement on the vertices, and the right-hand
    side its right-hand side there; the caller solves it for x at the
    vertices, then calls `_back_substitute`.  Overwrites the store through
    `blocks` and the right-hand side through b; work is (2, k, E) scratch.
    """
    k = len(blocks) - 1
    # the multipliers of pivot p (rows p+1..k, then row 0) and their
    # products go to the caller's contiguous work rows, not to new arrays
    # per pivot
    mult, prod = work
    for p in range(1, k):
        m = k - p
        col = blocks[p]
        np.divide(col[p + 1 :], col[p], out=mult[:m])
        np.divide(col[0], col[p], out=mult[m])
        for c in (0, *range(p + 1, k + 1)):
            col = blocks[c]
            np.multiply(mult[: m + 1], col[p], out=prod[: m + 1])
            below, top = col[p + 1 :], col[0]
            np.subtract(below, prod[:m], out=below)
            np.subtract(top, prod[m], out=top)
        np.multiply(mult[: m + 1], b[p], out=prod[: m + 1])
        np.subtract(b[p + 1 :], prod[:m], out=b[p + 1 :])
        np.subtract(b[0], prod[m], out=b[0])


def _back_substitute(blocks: list[np.ndarray], b: np.ndarray, u: np.ndarray, work: np.ndarray) -> None:
    """Second half of the static condensation that `_eliminate_interiors`
    began on the store viewed by `blocks` and the right-hand side viewed by
    b: write every element's interior dofs into the solution x, viewed by u
    as b views the right-hand side, from the vertex values x already holds,
    its first and last entries included.  An element reads only its own
    block, its right-hand side and its two vertex values.  work is the
    elimination's."""
    k = len(blocks) - 1
    term = work[1, 0]
    for p in range(k - 1, 0, -1):
        np.multiply(blocks[0][p], u[0], out=term)
        np.subtract(b[p], term, out=u[p])
        for c in range(p + 1, k + 1):
            np.multiply(blocks[c][p], u[c], out=term)
            np.subtract(u[p], term, out=u[p])
        np.divide(u[p], blocks[p][p], out=u[p])


@dataclass(frozen=True)
class OperatorSet:
    """Time-independent Galerkin arrays of one FESpace.

    conv_const[i, j] = int phi_j' phi_i dy, conv_linear[i, j] =
    int y phi_j' phi_i dy, nonlocal_weights[j] = int phi_j dy.
    """

    space: FESpace
    mass: BandedMatrix
    stiffness: BandedMatrix
    conv_const: BandedMatrix
    conv_linear: BandedMatrix
    nonlocal_weights: np.ndarray


def _scatter_blocks(data: np.ndarray, kb: int, local: np.ndarray) -> None:
    """Add the (nt, m, m) element blocks into band storage, one (li, lj)
    pair at a time over all elements; within one pair the elements hit
    distinct columns."""
    nt, m, _ = local.shape
    step = m - 1
    for li in range(m):
        for lj in range(m):
            data[kb + li - lj, lj : lj + nt * step : step] += local[:, li, lj]


def _scatter_vectors(out: np.ndarray, local: np.ndarray) -> None:
    """Add the element vectors, column e of the (k + 1, nt) `local`, into
    the global vector: each entry is 0.0 plus one term, or two at a node
    shared by two elements."""
    m, nt = local.shape
    k = m - 1
    body = out[:-1].reshape(nt, k)
    body += local[:k].T
    out[k::k] += local[k]


def assemble_static(space: FESpace) -> OperatorSet:
    """Assemble all five time-independent arrays by Gauss quadrature.

    The local blocks of all elements are formed at once by batched matrix
    products and added into the bands one local index pair at a time.
    Every band entry is 0.0 plus at most two element terms (two only on
    the diagonal at a node two elements share), and such a sum does not
    depend on the order of its terms, so the scatter adds nothing
    order-dependent to the local blocks.  Mass and stiffness local blocks
    are formed as S'S with S the shape table scaled by sqrt(weight), which
    makes them symmetric to the last bit.  The bands are stored row-major,
    so that a band row, one diagonal, is contiguous: the step kernel's band
    arithmetic then walks a row, and `_gather_entries` reads a row k
    entries apart once per run.
    """
    k = space.degree
    n = space.n_dofs
    width = 2 * k + 1
    mass, stiff, conv0, conv1 = (np.zeros((width, n)) for _ in range(4))
    weights = np.zeros(n)

    V = space.shape_values
    D = space.shape_derivs
    w = space.quad.weights
    jac = space.jacobians[:, None]
    SV = V * np.sqrt(w * jac)[:, :, None]
    SD = D * np.sqrt(w / jac)[:, :, None]
    _scatter_blocks(mass, k, SV.transpose(0, 2, 1) @ SV)
    _scatter_blocks(stiff, k, SD.transpose(0, 2, 1) @ SD)
    # the jacobians of dy and d/dy cancel in the convection integrals, so
    # the constant piece is the same block on every element
    conv0_block = V.T @ (w[:, None] * D)
    _scatter_blocks(conv0, k, np.broadcast_to(conv0_block, (space.n_elements,) + conv0_block.shape))
    _scatter_blocks(conv1, k, V.T @ ((w * space.element_quad_points)[:, :, None] * D))
    _scatter_vectors(weights, (w @ V)[:, None] * space.jacobians)

    return OperatorSet(
        space=space,
        mass=BandedMatrix(mass, k),
        stiffness=BandedMatrix(stiff, k),
        conv_const=BandedMatrix(conv0, k),
        conv_linear=BandedMatrix(conv1, k),
        nonlocal_weights=weights,
    )


# Entries per `np.vecdot` in `nonlocal_value`: OpenBLAS splits a longer ddot
# across threads, and the split changes the order of its sum.
_DOT_CHUNK = 8192


def nonlocal_value(weights: np.ndarray, coeffs: np.ndarray, gamma: float) -> float | list[float]:
    """Integral of the expansion over a moving interval of width gamma.

    Under the change of variables this is gamma times the fixed-domain
    integral, so it equals gamma * weights . coeffs.  An (ne, n) stack of
    coefficient vectors gives the list of its ne rows' values, a vector one
    float.  `np.vecdot` makes one `ddot` per row, the call `np.dot` makes
    for two vectors, so a row's value has the bits of that row alone
    whatever ne is.  The dot products are summed over chunks of _DOT_CHUNK
    entries in order, so the result has the same bits at any BLAS thread
    count.
    """
    if np.shape(coeffs)[-1:] != np.shape(weights):
        raise ValueError(
            f"dimension mismatch: {np.shape(weights)} weights, {np.shape(coeffs)} coefficients"
        )
    total = np.vecdot(coeffs[..., :_DOT_CHUNK], weights[:_DOT_CHUNK])
    for j in range(_DOT_CHUNK, len(weights), _DOT_CHUNK):
        total += np.vecdot(coeffs[..., j : j + _DOT_CHUNK], weights[j : j + _DOT_CHUNK])
    return (gamma * total).tolist()


def assemble_load(space: FESpace, problem, i: int, x_q: np.ndarray, t: float, out=None, work=None) -> np.ndarray:
    """Load vector of equation i at time t: entry j is
    int f_i(alpha + gamma y, t) phi_j(y) dy, with x_q the space's (nt, q)
    element quadrature points mapped to the interval at time t.

    The element vectors are formed as one (k + 1, q) by (q, nt) product, so
    every elementwise pass runs along the elements; points in Fortran order
    (as the step kernel keeps them) make fv.T contiguous for it.  Either
    order gives the same bits.  The vector is written into `out`, a
    contiguous array of n_dofs entries, when one is given, and the product
    into `work`, a pair of C-ordered (q, nt) and (k + 1, nt) arrays; both
    save allocations and neither changes a bit.
    """
    fv = sample(problem.forcing[i], x_q, t)
    if not np.isfinite(fv).all():
        e_bad, q_bad = np.argwhere(~np.isfinite(fv))[0]
        raise ValueError(
            f"forcing {i} returned a non-finite value at x={x_q[e_bad, q_bad]}, t={t}"
        )

    weighted, contrib = work or (None, None)
    weighted = np.multiply(fv.T, space.quad.weights[:, None], out=weighted)
    contrib = np.matmul(space.shape_values.T, weighted, out=contrib)
    contrib *= space.jacobians
    if out is None:
        out = np.empty(space.n_dofs)
    out.fill(0.0)
    _scatter_vectors(out, contrib)
    return out


def diffusion_scalar(problem, i: int, nonlocal_values) -> float:
    """Diffusion coefficient of equation i at the given nonlocal values,
    checked against the problem's declared bounds."""
    a = float(problem.diffusion[i](*nonlocal_values))
    lo, hi = problem.diffusion_bounds[i]
    if not (math.isfinite(a) and lo <= a <= hi):
        raise ValueError(
            f"diffusion coefficient of equation {i} is {a} at arguments "
            f"{tuple(nonlocal_values)}, outside declared bounds [{lo}, {hi}]"
        )
    return a
