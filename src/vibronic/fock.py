"""Sparse Fock-space assembly and ground-state solvers.

The molecular operator couples electronic nodes through the weighted
adjacency matrix A (times the drive Omega) while each node carries its own
quadratic phonon Hamiltonian over the shared collective modes; every model
input is read by :func:`vibronic.assembly.node_data`.  The product basis is
(node index) x (occupation tuple), with a uniform per-mode cutoff: occupation
numbers run over 0..cutoff-1.  Position-quadratic terms are mapped through
x = x0 (b + b^dag)/sqrt(2) per mode; the trap enters exactly as
omega b^dag b, so the vacuum of a free mode sits at zero energy.

Two frames are supported.  The default "bare" frame uses trap eigenstates:
diagonal blocks are the node Hamiltonians, off-diagonal blocks are
Omega * A_ss' times the phonon identity.  The "displaced" frame shifts each
node's phonon origin to the stationary point of its own quadratic form; this
represents the same operator exactly (off-diagonal blocks become
displacement-overlap matrices with closed-form elements) and converges at far
smaller cutoffs when couplings push the minima far from the trap center.

The operator is a sum of Kronecker products of banded single-mode factors,
so it is assembled as a stencil: a node block has entries only at the
occupation steps 0, +-e_m, +-2e_m and +-e_m+-e_n, whose elements are products
of the bands of X = b + b^dag and X^2.  A build has two parts.  What does not
depend on the cutoff is prepared once per model, and the last model's is
kept, keyed by the model's values (adjacency, form arrays, params apart
from the drive, frame): the frame shifts, each node's ladder coefficients,
the stencil steps (the occupation steps of the terms some node uses) and
the links of a nonzero drive.  The rest is assembled per cutoff.  Each node
row's width is counted first: its stencil steps plus one column block per
link, cutoff^k wide for a link whose k modes have different frame shifts.
Those widths alone size the memory budget check and every array of the
build.  The stencil (each step's offset, rows and bands) is laid out once
per step set and cutoff, and each node's rows, with their links, are
written in one pass into a single CSR matrix with sorted rows.  Every entry
is summed in the order of the term list
``omega n + const, l_m X_m, Q_mn X_m X_n (m <= n)``.  Link entries are
written last, as ``(Omega * A_st) * overlap`` at positions the build records.
The observables read the same bands: :func:`quadrature_moments` dots them with
three per-node marginals of the state along one mode.

:func:`converge_cutoff` doubles the cutoff until the ground energy settles,
starting each stage from the lower stage's zero-padded vector, refined above
``DENSE_CUTOVER`` states by a block-1 LOBPCG, preconditioned by
1/|diag(H) - rho| on the diagonal the build records, with ARPACK as the
fallback; every returned pair has a checked residual, against a target that
:func:`stage_tol` derives from the stopping tolerance ``e_tol``.
:func:`converge_scan` runs that doubling along an ordered list of models, the
one loop behind every scan, and carries work from row to row.  Rows of one
model that differ only in a nonzero drive share each cutoff's operator, whose
link entries, all off the diagonal, are rewritten (every row still sees its
own build bitwise).  Each sparse stage starts from the last three rows'
ground vectors of its shape, extrapolated quadratically, unless that start
fails or ends above the lower stage's energy, which nested bases forbid.

A scan row starts its doubling where the last converged row of its shape
was decided, at a dense stage; see :func:`converge_scan`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .assembly import ModeBasis, QuadraticVibronic, node_data
from .errors import DomainError, EigensolverError, ResourceBudgetError
from .params import PhysicalParams

SQRT2 = math.sqrt(2.0)

DENSE_CUTOVER = 256  # below this dimension a dense eigensolver is cheaper
LOBPCG_MAXITER = 60  # good warm starts converge in under 30; past this ARPACK is cheaper
JACOBI_FLOOR = 1e-2  # smallest preconditioner shift, relative to max(1, |rho|)
GATHER_CELLS = 2**18  # table cells compacted at once; bounds the gather's temporaries
MAX_BYTES = 2**31  # budget of one build's footprint, see build_fock_matrix
EIG_TOL = 1e-11  # residual target of ground_state, and of every stage at e_tol <= 1e-8


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Sparse symmetric molecular operator in a truncated product Fock basis."""

    matrix: "scipy.sparse.csr_matrix"
    diagonal: np.ndarray  # the matrix diagonal, which link rewrites leave alone
    n_nodes: int
    n_modes: int
    cutoff: int
    x0: float
    displacements: np.ndarray  # (n_nodes, n_modes) phonon-frame offsets
    # per link block: (A[s, t], position of each row's first entry in matrix.data,
    # displacement factors, table shape); see _write_links
    links: tuple = ()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of the cutoff-doubling convergence protocol."""

    energy: float
    cutoff: int
    converged: bool
    energy_history: tuple  # ((cutoff, energy), ...)


def displacement_matrix(alpha: float, cutoff: int) -> np.ndarray:
    """Truncated matrix of the displacement operator exp(alpha (b^dag - b)).

    Elements are exact for all retained rows and columns; columns are built by
    the recursion D|n+1> = (b^dag - alpha) D|n> / sqrt(n+1) starting from the
    coherent-state column.
    """
    d = np.zeros((cutoff, cutoff))
    col = np.zeros(cutoff)
    col[0] = math.exp(-(alpha**2) / 2.0)
    for m in range(1, cutoff):
        col[m] = col[m - 1] * alpha / math.sqrt(m)
    d[:, 0] = col
    sqm = np.sqrt(np.arange(float(cutoff)))
    for n in range(cutoff - 1):
        prev = d[:, n]
        nxt = np.empty(cutoff)
        nxt[0] = -alpha * prev[0]
        nxt[1:] = sqm[1:] * prev[:-1] - alpha * prev[1:]
        d[:, n + 1] = nxt / math.sqrt(n + 1.0)
    return d


# Stationary points farther than this (in oscillator units) indicate a
# numerically singular quadratic form; fall back to the bare frame there.
MAX_FRAME_SHIFT = 1e6


def _frame_displacements(forms, params: PhysicalParams, frame: str) -> np.ndarray:
    n_modes = forms[0].dim
    beta = np.zeros((len(forms), n_modes))
    if frame == "bare":
        return beta
    for s, form in enumerate(forms):
        try:
            # Only a positive-definite form has a displaced minimum worth
            # centering on; shifting onto a saddle would hide an instability
            # from the small-cutoff stages of the doubling protocol.
            np.linalg.cholesky(form.hessian)
        except np.linalg.LinAlgError:
            continue
        qstar = form.stationary_point()
        shift = qstar / (SQRT2 * params.x0)
        if np.all(np.isfinite(shift)) and np.abs(shift).max() < MAX_FRAME_SHIFT:
            beta[s] = shift
    return beta


def _node_coefficients(form: QuadraticVibronic, shift: np.ndarray, params: PhysicalParams):
    """Ladder coefficients ``(const, l, Q)`` of one node in its shifted phonon frame.

    The node block is ``const + omega sum_m n_m + sum_m l_m X_m +
    sum_mn Q_mn X_m X_n`` with ``X_m = b_m + b_m^dag`` and each mode's origin
    moved by ``shift`` (oscillator units), which is either zero or, as
    :func:`_frame_displacements` gives it, the node's own stationary point.
    There the shifted linear term ``l + omega b + 4 Q b`` vanishes, so a
    shifted node gets an exact zero, not its rounding residue.
    """
    x0 = params.x0
    trap = params.omega / (2.0 * x0**2)
    l = form.linear * (x0 / SQRT2)
    q = (form.hessian - trap * np.eye(form.dim)) * (x0**2 / 2.0)
    b = shift
    const = form.constant + params.omega * float(b @ b) + 2.0 * float(l @ b) + 4.0 * float(b @ q @ b)
    return const, np.zeros_like(l) if b.any() else l, q


@functools.lru_cache(maxsize=32)
def _mode_pairs(n_modes: int):
    """Read-only index arrays ``(m, n)`` of the mode pairs m < n, row-major."""
    pairs = np.triu_indices(n_modes, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _node_terms(node) -> np.ndarray:
    """Term coefficients of a node block: 0 for the diagonal, then ``l_m``,
    ``Q_mm`` and ``2 Q_mn`` (m < n, row-major)."""
    _, l, q = node
    return np.concatenate(([0.0], l, np.diagonal(q), 2.0 * q[_mode_pairs(l.size)]))


def _node_links(adjacency, beta):
    """Off-diagonal blocks ``(t, a, shifts)`` of each node row, by column node.

    The block is ``Omega * a`` with ``a = A[s, t]`` (the upper entry, for
    both blocks of a pair) times the Kronecker product of the displacement
    matrices of ``shifts``, the pairs ``(m, beta[max(s, t), m] -
    beta[min(s, t), m])`` over the modes whose shifts differ, oriented rows
    to columns, and the identity on every other mode.  These are the blocks
    of a nonzero drive; a drive of 0 has none.
    """
    links = [[] for _ in range(len(beta))]
    for s in range(len(beta)):
        for t in range(s + 1, len(beta)):
            if adjacency[s, t] == 0:
                continue
            shifts = tuple((m, d) for m, d in enumerate(beta[t] - beta[s]) if d != 0.0)
            links[s].append((t, adjacency[s, t], shifts))
            # row t gets its links to lower nodes before its own, so stays sorted
            links[t].append((s, adjacency[s, t], shifts))
    return tuple(tuple(row) for row in links)


def _link_pattern(factors) -> np.ndarray:
    """Where every displacement factor of a link block is nonzero."""
    pattern = factors[0] != 0.0
    for factor in factors[1:]:
        pattern = pattern & (factor != 0.0)
    return pattern


def _write_links(data: np.ndarray, links, Omega: float):
    """Write every link entry of a CSR ``data`` array at drive ``Omega``.

    ``links`` holds ``(A[s, t], heads, factors, shape)`` per link block, as
    :func:`_assemble` records them, where ``heads`` are the positions of the
    block's first entry in each of its rows.  An identity block (no
    factors) has that one entry per row, ``Omega * A[s, t]``.  Any other
    block has ``(Omega * A[s, t]) * overlap`` at the cells where every factor
    is nonzero, consecutive within a row; the overlap, the product of the
    factors in mode order, is recomputed block by block, so a block stores
    only one position per row.
    """
    for a, heads, factors, shape in links:
        weight = Omega * a
        if not factors:
            data[heads] = weight
            continue
        overlap = factors[0]
        for factor in factors[1:]:
            overlap = overlap * factor
        kept = np.broadcast_to(_link_pattern(factors), shape)
        counts = kept.sum(axis=tuple(range(len(shape) - len(factors), len(shape)))).ravel()
        # a kept cell's position: its row's head plus its rank among the row's kept cells
        base = np.repeat(heads - (np.cumsum(counts) - counts), counts)
        data[base + np.arange(base.size)] = np.broadcast_to(weight * overlap, shape)[kept]


@functools.lru_cache(maxsize=32)
def _bands(cutoff: int):
    """Diagonals of X = b + b^dag at offsets +-1 and of X^2 at offsets 0 and +-2.

    The X^2 elements are the sums of products of X elements that the matrix
    product forms; the mapping and its arrays are read-only, shared by every
    build.
    """
    sq = np.sqrt(np.arange(1.0, cutoff))
    square = sq * sq
    diagonal = np.zeros(cutoff)
    diagonal[1:] = square
    diagonal[:-1] += square
    step2 = sq[:-1] * sq[1:]
    for band in (sq, diagonal, step2):
        band.setflags(write=False)
    return MappingProxyType({-2: step2, -1: sq, 0: diagonal, 1: sq, 2: step2})


def _along(axis: int, band: np.ndarray, ndim: int) -> np.ndarray:
    return band.reshape([-1 if k == axis else 1 for k in range(ndim)])


def _steps(terms, n_modes: int):
    """The occupation steps some node's ``terms`` reach, as ``(term, step)`` pairs.

    The steps are the occupation changes 0, +-e_m, +-2e_m and +-e_m+-e_n;
    ``term`` indexes :func:`_node_terms`, ``step`` is a tuple of one int per
    mode, and a term no node uses adds none.
    """
    used = np.any([coef != 0.0 for coef in terms], axis=0)
    unit = np.eye(n_modes, dtype=int)
    moves = [[0 * unit[0]]]
    moves += [[unit[m], -unit[m]] for m in range(n_modes)]
    moves += [[2 * unit[m], -2 * unit[m]] for m in range(n_modes)]
    moves += [
        [a * unit[m] + b * unit[n] for a in (1, -1) for b in (1, -1)]
        for m, n in zip(*_mode_pairs(n_modes))
    ]
    used[0] = True  # the diagonal step is always kept
    return tuple(
        (term, tuple(step.tolist()))
        for term, steps in enumerate(moves)
        if used[term]
        for step in steps
    )


def _footprint(widths, n_blocks: int, per_node: int):
    """``(bytes, index dtype)`` that :func:`_assemble` allocates for these row widths.

    The bytes are the CSR ``data``/``indices``/``indptr`` arrays at their
    untrimmed size, the diagonal, the widest node's ``(per_node, width)``
    value, column and mask tables, and the link records: a position per row
    of each of the ``n_blocks`` link blocks.
    """
    dim = len(widths) * per_node
    upper = per_node * sum(widths)
    idx = np.int32 if max(upper, dim) <= np.iinfo(np.int32).max else np.int64
    size = np.dtype(idx).itemsize
    tables = per_node * max(widths) * (9 + size)
    return upper * (8 + size) + (dim + 1 + per_node * n_blocks) * size + 8 * dim + tables, idx


@functools.lru_cache(maxsize=16)
def _stencil(steps, cutoff: int):
    """The node-block stencil: the ``steps`` sorted by column offset.

    Each entry is ``(offset, term, rows, factors)``: the step's column
    offset, its term index into :func:`_node_terms`, the block of rows whose
    target occupation stays below the cutoff, and the bands whose product is
    the element there without its coefficient, each broadcastable over that
    block (an X band, an X^2 band or two X bands; none for the diagonal
    step).  The factors are read-only views of :func:`_bands`, so the cache
    holds no arrays of its own; :func:`_assemble` forms the products.
    """
    n_modes = len(steps[0][1])
    bands = _bands(cutoff)
    stencil = []
    for term, step in steps:
        rows = tuple(slice(max(0, -d), cutoff - max(0, d)) for d in step)
        factors = tuple(_along(m, bands[d], n_modes) for m, d in enumerate(step) if d != 0)
        offset = sum(d * cutoff ** (n_modes - 1 - m) for m, d in enumerate(step))
        stencil.append((offset, term, rows, factors))
    return tuple(sorted(stencil, key=lambda entry: entry[0]))


def _diagonal(node, omega: float, bands, out: np.ndarray) -> np.ndarray:
    """Write the node-block diagonal into ``out``: omega n + const, then Q_mm (X_m^2) by mode."""
    const, _, q = node
    cutoff, n_modes = bands[0].size, out.ndim
    occupation = sum(_along(m, np.arange(float(cutoff)), n_modes) for m in range(n_modes))
    np.add(omega * occupation, const, out=out)
    for m in range(n_modes):
        if q[m, m] != 0.0:
            out += q[m, m] * _along(m, bands[0], n_modes)
    return out


def _fill_link(cols, keep, s: int, link, n_modes: int, cutoff: int):
    """Write node s's block row of one link into ``(per_node, width)`` slices.

    The table's axes are the row occupations of every mode followed by the
    column occupations of the modes the link displaces.  Returns the block's
    factors, the displacement matrices of those modes (transposed in the row
    of the higher node) shaped to broadcast over the table, in mode order,
    and the table's shape.  A cell is kept where every factor is nonzero;
    :func:`_write_links` writes the values.
    """
    t, _, shifts = link
    factors = {m: displacement_matrix(d, cutoff) for m, d in shifts}
    if t < s:
        factors = {m: f.T for m, f in factors.items()}
    moved = sorted(factors)
    ndim = n_modes + len(moved)
    shape = (cutoff,) * ndim
    occupations = np.arange(cutoff, dtype=cols.dtype)
    column = t * cutoff**n_modes
    for m in range(n_modes):
        axis = n_modes + moved.index(m) if m in factors else m
        column = column + _along(axis, occupations * cutoff ** (n_modes - 1 - m), ndim)
    factors = tuple(
        factors[m].reshape([cutoff if k in (m, n_modes + i) else 1 for k in range(ndim)])
        for i, m in enumerate(moved)
    )
    cols.reshape(shape, copy=False)[...] = column
    keep.reshape(shape, copy=False)[...] = _link_pattern(factors) if factors else True
    return factors, shape


def _assemble(
    coefficients, terms, steps, links, widths, idx, omega: float, Omega: float, cutoff: int
):
    """Write the node blocks and their links row by row into one CSR matrix.

    ``coefficients`` and ``terms`` are each node's ladder and term
    coefficients, as :func:`_prepared` gives them.  Each node's rows are filled
    as a dense ``(per_node, widths[s])`` table whose columns are, in column
    order, the links to lower nodes, the stencil steps, and the links to
    higher nodes; the stored entries are the kept cells in row-major order,
    with ``idx`` indices.  Node-block cells outside a step's rows stay zero,
    and node-block entries that are exactly zero are dropped; link entries
    are kept wherever their factors are nonzero.

    Returns the matrix, its diagonal (the node diagonals) and its link
    records ``(A[s, t], heads, factors, shape)`` per link block (see
    :func:`_write_links`); the link entries are written through them, at
    drive ``Omega``, once the tables are gone.
    """
    import scipy.sparse as sp  # loaded by the first build, not by ``import vibronic``

    n_modes = len(steps[0][1])
    per_node = cutoff**n_modes
    dim = len(coefficients) * per_node
    upper = per_node * sum(widths)  # the unwritten tail is never touched
    bands = _bands(cutoff)
    stencil = _stencil(steps, cutoff)
    offsets = np.array([offset for offset, _, _, _ in stencil], dtype=idx)
    data = np.empty(upper)
    indices = np.empty(upper, dtype=idx)
    indptr = np.zeros(dim + 1, dtype=idx)
    diagonal = np.empty(dim)
    records = []
    pos = 0
    for s, node in enumerate(coefficients):
        vals = cols = keep = table = slab = None  # drop the last node's tables before the next
        vals = np.zeros((per_node, widths[s]))
        cols = np.empty((per_node, widths[s]), dtype=idx)
        keep = np.empty((per_node, widths[s]), dtype=bool)
        lower = sum(t < s for t, _, _ in links[s])
        blocks = []  # (columns, A[s, t], factors, shape) of this row's link blocks
        k = 0
        for link in links[s][:lower] + (None,) + links[s][lower:]:
            width = len(stencil) if link is None else cutoff ** len(link[2])
            part = slice(k, k + width)
            if link is None:
                coef = terms[s]
                table = vals[:, part].reshape((cutoff,) * n_modes + (width,), copy=False)
                first = s * per_node
                for j, (_, term, rows, factors) in enumerate(stencil):
                    if term == 0:
                        own = diagonal[first : first + per_node].reshape(table.shape[:-1])
                        table[..., j] = _diagonal(node, omega, bands, own)
                    elif coef[term] != 0.0:
                        element = factors[0] * factors[1] if len(factors) == 2 else factors[0]
                        table[rows + (j,)] = coef[term] * element
                np.not_equal(vals[:, part], 0.0, out=keep[:, part])
                row_ids = np.arange(first, first + per_node, dtype=idx)
                np.add.outer(row_ids, offsets, out=cols[:, part])
            else:
                factors, shape = _fill_link(cols[:, part], keep[:, part], s, link, n_modes, cutoff)
                blocks.append((part, link[1], factors, shape))
            k += width
        counts = keep.sum(axis=1, dtype=idx)
        counts[0] += pos
        np.cumsum(counts, out=indptr[s * per_node + 1 : (s + 1) * per_node + 1])
        height = max(1, GATHER_CELLS // widths[s])
        for lo in range(0, per_node, height):
            slab = keep[lo : lo + height]
            end = pos + np.count_nonzero(slab)
            data[pos:end] = vals[lo : lo + height][slab]
            indices[pos:end] = cols[lo : lo + height][slab]
            pos = end
        # a block's first entry in a row follows the row's kept cells left of it
        starts = indptr[s * per_node : (s + 1) * per_node]
        for part, a, factors, shape in blocks:
            heads = starts + keep[:, : part.start].sum(axis=1, dtype=idx)
            records.append((a, heads, factors, shape))
    data.resize(pos, refcheck=False)
    indices.resize(pos, refcheck=False)
    _write_links(data, records, Omega)
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim)), diagonal, tuple(records)


_LAST = (None, None)  # (_model_key, what _prepared returns) of the last build


def _model_key(adjacency, forms, params: PhysicalParams, frame: str):
    """A model's values apart from the drive: the adjacency's shape and bytes,
    each form's constant, linear and Hessian bytes, ``params`` with ``Omega``
    set to 0, and ``frame``.  An array edited in place thus gives another key.
    """
    return (
        adjacency.shape,
        adjacency.tobytes(),
        tuple(
            (np.float64(f.constant).tobytes(), f.linear.tobytes(), f.hessian.tobytes())
            for f in forms
        ),
        dataclasses.replace(params, Omega=0.0),
        frame,
    )


def _prepared(adjacency, forms, params: PhysicalParams, frame: str):
    """The cutoff-independent inputs of a build, ``(beta, coefficients, terms, steps, links)``.

    The frame shifts, each node's ladder coefficients and its term
    coefficients (:func:`_node_terms`), the stencil steps (a tuple) and the
    link blocks of a nonzero drive; every array is read-only.  The last
    model's are kept by its :func:`_model_key` and reused while the builds
    keep to it.
    """
    global _LAST
    key = _model_key(adjacency, forms, params, frame)
    if _LAST[0] != key:
        beta = _frame_displacements(forms, params, frame)
        coefficients = tuple(_node_coefficients(f, b, params) for f, b in zip(forms, beta))
        terms = tuple(_node_terms(node) for node in coefficients)
        for array in (beta, *terms, *(a for _, l, q in coefficients for a in (l, q))):
            array.setflags(write=False)
        steps = _steps(terms, beta.shape[1])
        _LAST = (key, (beta, coefficients, terms, steps, _node_links(adjacency, beta)))
    return _LAST[1]


def build_fock_matrix(
    graph,
    forms,
    params: PhysicalParams,
    cutoff: int = 8,
    *,
    frame: str = "bare",
) -> FockOperator:
    """Assemble the molecular operator in the truncated product Fock basis.

    ``graph`` may be a :class:`ResonantGraph` or a plain adjacency matrix
    (see :func:`node_data`).  ``forms`` are the per-node quadratic forms over
    the shared reduced coordinates.  The off-diagonal block between nodes s
    and t is ``params.Omega * A[s, t]`` times the phonon overlap.  Raises
    :class:`ResourceBudgetError` when the build would allocate more than
    ``MAX_BYTES``: the CSR arrays at their untrimmed size (every stencil step
    and link cell of every row), the widest node's dense tables and the link
    records.  That footprint is counted from the row widths before anything
    of size ``cutoff**n_modes`` is allocated.  It leaves out what a doubling
    or a scan holds next to the build: the eigensolver's vectors, the
    zero-padded warm start, up to three ground vectors per sparse stage
    shape and the operators a scan carries (see :func:`converge_scan`).

    The frame shifts, node coefficients, stencil steps and link list depend
    on the model and ``frame`` only.  The last model's are kept, keyed by
    the adjacency's and the forms' values, ``params`` apart from ``Omega``,
    and ``frame``, so the stages of a cutoff doubling, and the rows of a
    drive scan, prepare nothing again; a drive of 0 drops the links.  Those
    arrays are shared and read-only, ``FockOperator.displacements`` among
    them.  The matrix is then written node row by node row from the stencil
    described in the module docstring.  Links fill the identity diagonal
    (bare frame, or equal shifts) or the Kronecker product of displacement
    matrices over the modes whose shifts differ.  Every row's column indices
    are sorted (int32 below 2**31 entries); node-block entries that are
    exactly zero are not stored.  ``FockOperator.links`` records where each
    link block's entries sit in ``matrix.data``, with the block's
    displacement factors, so that a scan can move the operator to another
    nonzero drive in place.
    """
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    if frame not in ("bare", "displaced"):
        raise DomainError(f'frame must be "bare" or "displaced", got {frame!r}')
    adjacency, forms = node_data(graph, forms)
    n_nodes = len(forms)
    n_modes = forms[0].dim

    beta, coefficients, terms, steps, links = _prepared(adjacency, forms, params, frame)
    if params.Omega == 0.0:
        links = ((),) * n_nodes
    # a row's table columns: its stencil steps, then cutoff**k per link displacing k modes
    widths = [len(steps) + sum(cutoff ** len(shifts) for _, _, shifts in row) for row in links]
    n_blocks = sum(len(row) for row in links)
    footprint, idx = _footprint(widths, n_blocks, cutoff**n_modes)
    if footprint > MAX_BYTES:
        raise ResourceBudgetError(
            f"matrix footprint {footprint/1e9:.2f} GB exceeds budget {MAX_BYTES/1e9:.2f} GB "
            f"(nodes={n_nodes}, modes={n_modes}, cutoff={cutoff})",
            estimated_bytes=footprint,
        )

    matrix, diagonal, records = _assemble(
        coefficients, terms, steps, links, widths, idx, params.omega, params.Omega, cutoff
    )
    return FockOperator(
        matrix=matrix,
        diagonal=diagonal,
        n_nodes=n_nodes,
        n_modes=n_modes,
        cutoff=cutoff,
        x0=params.x0,
        displacements=beta,
        links=records,
    )


def _residual_limit(tol: float, energy: float) -> float:
    """Largest accepted ||H v - E v|| for a unit vector v."""
    return tol * max(1.0, abs(energy))


def _checked_pair(matrix, energy: float, vec: np.ndarray, tol: float, solver: str):
    residual = float(np.linalg.norm(matrix @ vec - energy * vec))
    limit = _residual_limit(tol, energy)
    if not residual <= limit:  # a NaN residual fails too
        raise EigensolverError(
            f"{solver} residual {residual:.3e} exceeds {limit:.3e}", best_estimate=energy
        )
    return energy, vec


def _jacobi_lobpcg(matrix, diagonal: np.ndarray, v0: np.ndarray, tol: float):
    """Refine a unit warm start by block-1 LOBPCG preconditioned with 1/|diag(H) - rho|.

    ``diagonal`` is diag(H) and rho the Rayleigh quotient of ``v0``; shifts
    below a small floor are raised to it.  Each iteration applies
    Rayleigh-Ritz to the span of the iterate x, its preconditioned residual w
    and the previous direction p (Knyazev, SIAM J. Sci. Comput. 23, 517
    (2001)), orthonormalized through the Cholesky factor of their Gram
    matrix; p is dropped for a step whenever that factor fails.  The vectors
    are updated in place, so a step allocates little beyond its matvec.
    Stops when ||H x - rho x|| meets the limit for ``tol`` at the starting
    rho, or after ``LOBPCG_MAXITER`` iterations; the caller checks the
    residual and hands a miss to ARPACK.
    """
    space = np.zeros((3, 2, v0.size))  # rows x, w, p, each with H times it
    (x, hx), (w, hw), _ = space
    x[:] = v0
    hx[:] = matrix @ v0
    rho = float(x @ hx)
    precond = 1.0 / np.maximum(np.abs(diagonal - rho), JACOBI_FLOOR * max(1.0, abs(rho)))
    limit = _residual_limit(tol, rho)
    rows = 2  # p joins after the first step
    for _ in range(LOBPCG_MAXITER):
        np.multiply(x, -rho, out=w)
        w += hx  # the residual
        if np.linalg.norm(w) <= limit:
            break
        w *= precond
        hw[:] = matrix @ w
        products = space[:rows].reshape(2 * rows, -1) @ space[:rows, 0].T
        scale = 1.0 / np.sqrt(np.diagonal(products[::2]))  # unit rows, vectors untouched
        gram = products[::2] * np.outer(scale, scale)
        ritz = products[1::2] * np.outer(scale, scale)
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            rows = 2  # p has fallen into the span of x and w
            gram, ritz, scale = gram[:2, :2], ritz[:2, :2], scale[:2]
            factor = np.linalg.cholesky(gram)
        inverse = np.linalg.inv(factor)
        values, vectors = np.linalg.eigh(inverse @ ritz @ inverse.T)
        step = inverse.T @ vectors[:, 0]  # the new x over the unit rows; it has unit norm
        # its part outside x, the new p, has this norm over the rows
        length = np.linalg.norm(factor.T[:, 1:] @ step[1:])
        if not length > 0.0:
            break  # the span holds nothing below x, or it broke down: the caller checks x
        coefficients = step * scale  # over the raw rows x, w and, with three rows, p
        space[1:rows] *= coefficients[1:, None, None]
        np.add(space[1], space[2] if rows == 3 else 0.0, out=space[2])  # the new p, unscaled
        space[0] *= coefficients[0]
        space[0] += space[2]
        space[2] /= length
        rho = float(values[0])
        rows = 3
    return rho, x.copy()


def ground_state(op: FockOperator, tol: float = EIG_TOL, v0: np.ndarray = None):
    """Lowest eigenpair of the operator, with a checked residual.

    Small problems use a dense solver.  Above ``DENSE_CUTOVER`` a warm start
    ``v0`` is refined by LOBPCG with a Jacobi (diagonal) preconditioner; if
    that misses the tolerance, or no warm start is given, a Krylov iteration
    runs from ``v0`` or from a deterministic all-ones vector with a fixed
    iteration cap.  Every returned pair satisfies
    ``||H v - E v|| <= tol * max(1, |E|)`` for the unit vector ``v``, so E
    lies within that bound of an eigenvalue (see :func:`stage_tol`), while
    the error of ``v`` itself scales as that bound over the spectral gap.
    Raises :class:`EigensolverError` carrying the best estimate when no
    solver meets that bound.
    """
    matrix = op.matrix
    dim = matrix.shape[0]
    if dim <= DENSE_CUTOVER:
        vals, vecs = np.linalg.eigh(matrix.toarray())
        return _checked_pair(matrix, float(vals[0]), vecs[:, 0], tol, "dense eigensolver")
    if v0 is None:
        v0 = np.ones(dim) / math.sqrt(dim)
    else:
        v0 = v0 / np.linalg.norm(v0)
        try:
            pair = _jacobi_lobpcg(matrix, op.diagonal, v0, tol)
            return _checked_pair(matrix, *pair, tol, "LOBPCG")
        except (EigensolverError, np.linalg.LinAlgError):
            pass  # ARPACK takes over from the same warm start
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # only ARPACK stages need it

    maxiter = int(10 * math.sqrt(dim)) + 500
    try:
        vals, vecs = eigsh(matrix, k=1, which="SA", v0=v0, maxiter=maxiter, tol=tol)
    except ArpackNoConvergence as exc:
        best = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else None
        raise EigensolverError(
            f"eigensolver did not converge within {maxiter} iterations", best_estimate=best
        ) from exc
    return _checked_pair(matrix, float(vals[0]), vecs[:, 0], tol, "ARPACK")


def stage_tol(e_tol: float) -> float:
    """Residual target of every stage of a doubling that stops at ``e_tol``:
    ``EIG_TOL`` up to 1e-8, ``e_tol * 1e-3`` above.  By Weinstein's bound
    (Parlett, *The Symmetric Eigenvalue Problem*, 10.2), every stage energy
    then lies within that target times max(1, |E|) of an eigenvalue."""
    return EIG_TOL if e_tol <= 1e-8 else e_tol * 1e-3


def converge_cutoff(graph, forms, params: PhysicalParams, **solver) -> SolveReport:
    """Double the Fock cutoff from 4 until the ground energy stabilizes.

    This is :func:`converge_scan` over the one row ``(graph, forms, params)``,
    with its ``solver`` keywords ``e_tol``, ``max_cutoff`` and ``frame``.
    Stops when consecutive energies differ by less than
    ``e_tol`` or the cutoff would exceed ``max_cutoff``.  Each stage is solved
    to the residual target ``stage_tol(e_tol)``, so a stop can differ from the
    one exact stage energies would give only when a stage pair's difference
    lies within twice that bound of ``e_tol``.  Each stage after the first
    starts its eigensolver from the previous stage's ground vector,
    zero-padded into the doubled basis.  Non-convergence is reported in the
    result rather than raised: persistent energy descent under cutoff growth
    is the numerical signature of an instability.  A stage whose eigensolver
    failed records its best estimate but can never make the report
    converged, and a stage over the ``MAX_BYTES`` budget ends the doubling
    unconverged; only an over-budget first stage raises
    :class:`ResourceBudgetError`.
    """
    return converge_scan([(graph, forms, params)], **solver)[0]


def _extrapolate(trail):
    """Start vector from the last rows' ground vectors of one stage shape, latest first.

    Three vectors give ``3 v1 - 3 v2 + v3`` and two give ``2 v1 - v2``, the
    quadratic and linear extrapolations in the row index, with every sign
    aligned to ``v1``; one gives itself; none gives None.
    """
    if len(trail) < 2:
        return trail[0] if trail else None
    weights = (2.0, -1.0) if len(trail) == 2 else (3.0, -3.0, 1.0)
    v1 = trail[0]
    return sum(c * (v if v1 @ v >= 0.0 else -v) for c, v in zip(weights, trail))


def _carried_operator(operators: dict, graph, forms, params, cutoff: int, frame):
    """The stage operator of one row, whose model built every operator in ``operators``.

    A drive of 0 has no links and gets its own build.  Any other drive reuses
    ``operators[cutoff]``, built at the model's first nonzero drive there,
    with its link entries rewritten in place.
    """
    if params.Omega == 0.0:
        return build_fock_matrix(graph, forms, params, cutoff, frame=frame)
    op = operators.get(cutoff)
    if op is None:
        op = build_fock_matrix(graph, forms, params, cutoff, frame=frame)
        operators[cutoff] = op
    else:
        _write_links(op.matrix.data, op.links, params.Omega)
    return op


def _stage_pair(op: FockOperator, tol: float, guess, padded, bound):
    """Ground pair of one stage, from ``guess`` if that start succeeds at or below ``bound``.

    Otherwise the stage is solved from ``padded``, the lower stage's vector
    (None for a cold start), and a failed eigensolver gives
    ``(best estimate, None)``.
    """
    if guess is not None:
        with contextlib.suppress(EigensolverError):
            energy, state = ground_state(op, tol=tol, v0=guess)
            if bound is None or energy <= bound:
                return energy, state
    try:
        return ground_state(op, tol=tol, v0=padded)
    except EigensolverError as exc:
        if exc.best_estimate is None:
            raise
        return exc.best_estimate, None


def converge_scan(
    models,
    *,
    e_tol: float = 1e-8,
    max_cutoff: int = 256,
    frame: str = "bare",
) -> tuple:
    """Run the cutoff doubling of :func:`converge_cutoff` on every row, in order.

    ``models`` is a sequence of ``(graph, forms, params)`` rows; returns one
    :class:`SolveReport` per row, each with the stopping rule, the stage
    residual target ``stage_tol(e_tol)`` and the failure handling of a
    one-row call.  Three kinds of work are carried from row to row.

    *Starting cutoffs.*  A row of shape ``(len(forms), forms[0].dim)``
    starts where the last converged row of that shape was decided: at the
    lower cutoff ``c`` of its deciding pair, or at ``max(4, c // 2)`` when
    that pair was the row's first, which lets the start fall along a grid
    whose rows get easier.  After an unconverged row of the shape, or with
    none yet, it starts at 4; the start of one shape says nothing about
    another.  A start whose stage has more than ``DENSE_CUTOVER`` states is
    halved until its stage is dense or it is 4.  A first stage has no lower
    stage whose energy bounds it, so a sparse one could settle on an excited
    level; a dense one returns the ground level, and every later stage is
    bounded as in a one-row call.  The doubling from 4 passes through that
    dense stage too; all a carried start can add is the stage above it, of
    at most 1,024 states, far inside the ``MAX_BYTES`` budget.  A row still
    stops only on two consecutive
    stages closer than ``e_tol``, so it may stop at a higher cutoff than
    :func:`converge_cutoff` on that row alone, whose first pair is (4, 8).

    *Operators.*  A row reuses the operator of a cutoff, rewriting only its
    link entries in place (which gives the build's matrix bitwise), when its
    :func:`_model_key`, the values that the build's own preparation is kept
    by, is that of the row that built that operator, and its drive is
    nonzero; forms edited in place since then make another model, even as
    the same objects.  A drive of exactly 0 has no links and gets its own
    build.  A row of any other model drops the cached operators and builds
    afresh, so the scan holds at most one model's operators, one per reached
    cutoff, besides the build in progress.

    *Vectors.*  Above ``DENSE_CUTOVER`` a stage starts from the last three
    rows' ground vectors of its shape (nodes, modes, cutoff), extrapolated
    quadratically in the row index, whatever model they came from.  It falls
    back to the zero-padded lower stage's vector when that start fails or
    ends above the lower stage's energy, which the nested bases forbid.

    The memory budget counts one build at a time.  Besides that build, a
    scan holds the operators of one model (one per reached cutoff), up to
    three ground vectors per sparse stage shape and the zero-padded warm
    start; none of these is counted.
    """
    if max_cutoff < 4:
        raise DomainError(f"max_cutoff must be at least 4, got {max_cutoff}")
    tol = stage_tol(e_tol)
    operators = {}  # cutoff -> operator built at a nonzero drive of ``owner``
    owner = None  # _model_key of the row that built them
    trails = {}  # (nodes, modes, cutoff) -> ground vectors of the last three rows there
    starts = {}  # (nodes, modes) -> first cutoff of the next row there
    reports = []
    for graph, forms, params in models:
        key = _model_key(*node_data(graph, forms), params, frame)
        if key != owner:
            operators, owner = {}, key
        history = []
        energy_prev = None
        converged = False
        op = state = None
        row_shape = (len(forms), forms[0].dim)
        cutoff = starts.get(row_shape, 4)
        # a first stage has no lower one to bound its energy, so it is a dense one
        while cutoff > 4 and len(forms) * cutoff ** forms[0].dim > DENSE_CUTOVER:
            cutoff //= 2
        while cutoff <= max_cutoff:
            padded = None if state is None else _zero_pad(op, state, cutoff)
            try:
                op = _carried_operator(operators, graph, forms, params, cutoff, frame)
            except ResourceBudgetError:
                if not history:
                    raise
                break
            # dense stages ignore starts, so only sparse ones keep a trail
            shape = (op.n_nodes, op.n_modes, cutoff)
            trail = trails.setdefault(shape, []) if op.dim > DENSE_CUTOVER else []
            energy, state = _stage_pair(op, tol, _extrapolate(trail), padded, energy_prev)
            if state is not None:
                trail[:] = [state, *trail[:2]]
            history.append((cutoff, energy))
            if state is not None and energy_prev is not None and abs(energy - energy_prev) < e_tol:
                converged = True
                break
            energy_prev = None if state is None else energy
            cutoff *= 2
        if converged:
            # a row decided by its first pair might have stopped lower: let the start fall
            low = history[-2][0]
            starts[row_shape] = low if len(history) > 2 else max(4, low // 2)
        else:
            starts.pop(row_shape, None)
        reports.append(
            SolveReport(
                energy=history[-1][1],
                cutoff=history[-1][0],
                converged=converged,
                energy_history=tuple(history),
            )
        )
    return tuple(reports)


def _per_node_views(op: FockOperator, state: np.ndarray):
    return state.reshape(op.n_nodes, *([op.cutoff] * max(op.n_modes, 1)))


def _zero_pad(op: FockOperator, state: np.ndarray, cutoff: int) -> np.ndarray:
    """Embed a state of ``op`` into the basis with the larger per-mode ``cutoff``.

    Occupations 0..op.cutoff-1 of every mode keep their amplitudes; the new
    occupations start empty.
    """
    view = _per_node_views(op, state)
    padded = np.zeros((op.n_nodes,) + (cutoff,) * (view.ndim - 1))
    padded[tuple(slice(n) for n in view.shape)] = view
    return padded.ravel()


def quadrature_moments(op: FockOperator, state: np.ndarray, mode: int):
    """Position mean/variance and momentum variance for one mode.

    Returns ``(mean_x, var_x, var_p)`` in length and inverse-length-squared
    units; a bare vacuum gives (0, x0^2/2, 1/(2 x0^2)).
    """
    if not 0 <= mode < op.n_modes:
        raise DomainError(f"mode index {mode} out of range for {op.n_modes} modes")
    state = np.asarray(state)
    if np.iscomplexobj(state):
        if np.abs(state.imag).max() > 1e-12:
            raise DomainError("quadrature_moments expects a real state vector")
        state = state.real
    norm = float(state @ state)
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"state vector must be normalized, |psi|^2 = {norm}")

    # the mode marginals: node s's sums of psi_n psi_(n+k) over every other mode, k = 0, 1, 2
    flat = np.moveaxis(_per_node_views(op, state), 1 + mode, -1).reshape(op.n_nodes, -1, op.cutoff)
    pairs, neighbours, skips = (
        np.einsum("srn,srn->sn", flat[..., : op.cutoff - k], flat[..., k:]) for k in range(3)
    )
    bands = _bands(op.cutoff)
    weights = pairs.sum(axis=1)
    ex_t = 2.0 * (neighbours @ bands[1])  # per node: X is the +-1 band
    skip = 2.0 * (skips @ bands[2])  # the +-2 band, shared by X^2 and P^2
    ex2_t = pairs @ bands[0] + skip
    ep2 = float((pairs @ (2.0 * np.arange(op.cutoff) + 1.0) - skip).sum())  # P^2 = 2n + 1 - skip

    b = op.displacements[:, mode]
    mean_big_x = float(ex_t.sum() + 2.0 * (b * weights).sum())
    mean_big_x2 = float(ex2_t.sum() + 4.0 * (b * ex_t).sum() + 4.0 * (b**2 * weights).sum())
    var_big_x = mean_big_x2 - mean_big_x**2

    mean_x = op.x0 * mean_big_x / SQRT2
    var_x = op.x0**2 * var_big_x / 2.0
    var_p = ep2 / (2.0 * op.x0**2)
    return mean_x, var_x, var_p


def mean_displacements(op: FockOperator, state: np.ndarray, basis: ModeBasis) -> np.ndarray:
    """Per-atom mean displacement vectors of a solved state.

    ``basis`` maps the operator's modes to atom coordinates; returns an
    ``(n_atoms, n_axes)`` array in length units.
    """
    if basis.dim != op.n_modes:
        raise DomainError(f"mode basis has {basis.dim} modes, the operator {op.n_modes}")
    q_mean = np.array([quadrature_moments(op, state, m)[0] for m in range(op.n_modes)])
    return basis.to_full(q_mean).reshape(basis.n_atoms, basis.n_axes)
