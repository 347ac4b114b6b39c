"""Sparse Fock-space assembly and ground-state solvers.

The molecular operator couples electronic nodes through the weighted
adjacency matrix A (times the drive Omega) while each node carries its own
quadratic phonon Hamiltonian over the shared collective modes; every solver
reads a :class:`vibronic.assembly.Model`.  The product basis is
(node index) x (occupation tuple), with a uniform per-mode cutoff: occupation
numbers run over 0..cutoff-1.  Position-quadratic terms are mapped through
x = x0 (b + b^dag)/sqrt(2) per mode; the trap enters exactly as
omega b^dag b, so the vacuum of a free mode sits at zero energy.

The phonon frame is read off the model.  Where no node couples to another
(``Omega A = 0``, :attr:`Model.decoupled`), each positive-definite node's
phonon origin is moved to the stationary point of its own quadratic form,
which changes nothing but the basis and converges at far smaller cutoffs
when couplings push the minima far from the trap center.  Everywhere else
every node keeps the trap frame, so the block between nodes s and t is
Omega * A_st times the phonon identity.

The operator is a sum of Kronecker products of banded single-mode factors,
so it is assembled as a stencil: a node block has entries only at the
occupation steps 0, +-e_m, +-2e_m and +-e_m+-e_n, whose elements are products
of the bands of X = b + b^dag and X^2.  A build has two parts.  What does not
depend on the cutoff is prepared once: the frame shifts, each node's ladder
coefficients and the stencil steps (the occupation steps of the terms some
node uses).  The node blocks are assembled per cutoff.  Both are kept for
the last model's forms, frame and params less the drive, which is all that
they read (see :func:`_prepared`), and the links are read off each model.

The operator H is symmetric and stored once: the strict upper triangle U of
its node blocks in one CSR matrix with sorted rows, its diagonal in an array
of its own, and each link block as one value ``Omega * A_st`` (s < t).  Each
node row's width, its stencil steps right of the diagonal, sizes the memory
budget check and every array of the build.  The stencil (each step's offset,
rows and bands) is laid out once per step set and cutoff, and each node's
rows are written in slabs of whole first-mode values, whose tables hold at
most ``GATHER_CELLS`` cells unless one value's rows alone hold more.  Every
entry is summed in the order of the term list ``omega n + const, l_m X_m,
Q_mn X_m X_n (m <= n)``.  A built operator is read-only.
:meth:`FockOperator.apply` forms H x in one buffer as the links left of the
diagonal, U^T x, diag * x, U x and the links right of it, each accumulated
in place: for every row the adds of the full matrix's sorted CSR row, in
that order, so the product is bitwise the full matrix's.  The observables
read the same bands: :func:`quadrature_moments` dots them with three
per-node marginals of the state along one mode.

:func:`converge_cutoff` doubles the cutoff until the ground energy settles,
starting each stage from the lower stage's zero-padded vector, refined above
``DENSE_CUTOVER`` states by a block-1 LOBPCG, preconditioned by
1/|diag(H) - rho| on the diagonal the build records, with ARPACK as the
fallback; every returned pair has a checked residual, against a target that
:func:`stage_tol` derives from the stopping tolerance ``e_tol``.
:func:`converge_scan` runs that doubling along an ordered list of models, the
one loop behind every scan, and carries work from row to row.  Each sparse
stage starts from the last three rows' ground vectors of its shape,
extrapolated quadratically, unless that start fails or ends above the lower
stage's energy, which nested bases forbid.

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

from .assembly import Model, ModeBasis, QuadraticVibronic
from .errors import DomainError, EigensolverError, ResourceBudgetError
from .params import PhysicalParams

SQRT2 = math.sqrt(2.0)

DENSE_CUTOVER = 256  # below this dimension a dense eigensolver is cheaper
LOBPCG_MAXITER = 60  # good warm starts converge in under 30; past this ARPACK is cheaper
JACOBI_FLOOR = 1e-2  # smallest preconditioner shift, relative to max(1, |rho|)
GRAM_FLOOR = 1e-6  # smallest pivot of a LOBPCG Gram factor before p is dropped
GATHER_CELLS = 2**18  # cells of one slab's build tables, unless one first-mode value needs more
MAX_BYTES = 2**30  # budget of one build's footprint, see build_fock_matrix
EIG_TOL = 1e-11  # residual target of ground_state, and of every stage at e_tol <= 1e-8


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Sparse symmetric molecular operator H in a truncated product Fock basis.

    H is stored once: ``matrix`` holds the strict upper triangle U of its
    node blocks in CSR, with sorted rows, ``diagonal`` its diagonal and
    ``links`` its link blocks, so H = U + U^T + diag + the links and their
    transposes.  Every array is read-only.  ``op @ x`` and :meth:`apply`
    give H x bitwise as the full CSR matrix would, and :meth:`toarray` gives
    H dense.
    """

    matrix: "scipy.sparse.csr_matrix"  # the strict upper triangle of the node blocks
    diagonal: np.ndarray
    n_nodes: int
    n_modes: int
    cutoff: int
    x0: float
    displacements: np.ndarray  # (n_nodes, n_modes) phonon-frame offsets
    links: tuple = ()  # (s, t, value) per link block s < t, sorted: value times the identity

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """H x, written into ``out`` (a new array if None) and returned.

        ``out`` is zeroed, then takes the links left of the diagonal, U^T x
        (the CSR arrays read as the CSC arrays of U^T), diag * x (one
        diagonal in DIA form), U x and the links right of the diagonal, each
        accumulated in place, the node blocks by scipy's kernels.  Row i thus
        sums its entries left of the diagonal, its diagonal and its entries
        right of it, in column order from 0: the adds of the full matrix's
        sorted CSR row, so the product is that matrix's bitwise.  ``out``
        must not overlap ``x``.
        """
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec, dia_matvec

        upper, dim = self.matrix, self.dim
        # the kernels read and write dim entries unchecked
        if np.shape(x) != (dim,) or (out is not None and out.shape != (dim,)):
            raise ValueError(f"expected vectors of length {dim}")
        if out is None:
            out = np.zeros(dim)
        else:
            out.fill(0.0)
        n = dim // self.n_nodes
        for s, t, value in self.links:  # row t's entries in column node s < t
            out[t * n : (t + 1) * n] += value * x[s * n : (s + 1) * n]
        arrays = (upper.indptr, upper.indices, upper.data, x, out)
        csc_matvec(dim, dim, *arrays)
        offsets = np.zeros(1, dtype=upper.indices.dtype)
        dia_matvec(dim, dim, 1, dim, offsets, self.diagonal[None, :], x, out)
        csr_matvec(dim, dim, *arrays)
        for s, t, value in self.links:  # row s's entries in column node t > s
            out[s * n : (s + 1) * n] += value * x[t * n : (t + 1) * n]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def toarray(self) -> np.ndarray:
        """H as a dense array: every cell a copy of its one stored value."""
        dense = self.matrix.toarray()
        np.copyto(dense, dense.T, where=np.tri(self.dim, k=-1, dtype=bool))
        np.fill_diagonal(dense, self.diagonal)
        n = self.dim // self.n_nodes
        rows = np.arange(n)
        for s, t, value in self.links:
            dense[s * n + rows, t * n + rows] = dense[t * n + rows, s * n + rows] = value
        return dense


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of the cutoff-doubling convergence protocol."""

    energy: float
    cutoff: int
    converged: bool
    energy_history: tuple  # ((cutoff, energy), ...)


# Stationary points farther than this (in oscillator units) indicate a
# numerically singular quadratic form; such a node keeps the trap frame.
MAX_FRAME_SHIFT = 1e6


def _frame_displacements(model: Model) -> np.ndarray:
    """Each node's phonon-frame shift in oscillator units, ``(n_nodes, n_modes)``.

    Where the model is decoupled (``Omega A = 0``: the test by which
    :func:`vibronic.bopes.minimize_bo` reads its minima in closed form) the
    operator is block diagonal, and each positive-definite node is centred
    on its own stationary point.  Elsewhere no node moves, so every link is
    the phonon identity.
    """
    beta = np.zeros((len(model.forms), model.dim))
    if not model.decoupled:
        return beta
    for s, form in enumerate(model.forms):
        try:
            # Only a positive-definite form has a displaced minimum worth
            # centering on; shifting onto a saddle would hide an instability
            # from the small-cutoff stages of the doubling protocol.
            np.linalg.cholesky(form.hessian)
        except np.linalg.LinAlgError:
            continue
        qstar = form.stationary_point()
        shift = qstar / (SQRT2 * model.params.x0)
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


def _links(model: Model) -> tuple:
    """The link blocks ``(s, t, Omega * A[s, t])`` of ``model`` over s < t, sorted.

    The block of nodes s and t is that value times the phonon identity, and
    so is its transpose; a decoupled model has none.
    """
    if model.decoupled:
        return ()
    pairs = zip(*np.nonzero(np.triu(model.adjacency, 1)))
    return tuple((int(s), int(t), model.params.Omega * model.adjacency[s, t]) for s, t in pairs)


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
    """The occupation steps right of the diagonal that some node's ``terms``
    reach, as ``(term, step)`` pairs.

    The steps are the occupation changes e_m, 2e_m and e_m +- e_n (m < n),
    whose first nonzero change is positive, so their column offset is too;
    their negatives lie left of the diagonal, and the diagonal itself is
    written by :func:`_diagonal`.  ``term`` indexes :func:`_node_terms`,
    ``step`` is a tuple of one int per mode, and a term no node uses adds
    none.
    """
    used = np.any([coef != 0.0 for coef in terms], axis=0)
    unit = np.eye(n_modes, dtype=int)
    moves = [[]]  # the diagonal term: _diagonal writes it
    moves += [[unit[m]] for m in range(n_modes)]
    moves += [[2 * unit[m]] for m in range(n_modes)]
    moves += [[unit[m] + unit[n], unit[m] - unit[n]] for m, n in zip(*_mode_pairs(n_modes))]
    return tuple(
        (term, tuple(step.tolist()))
        for term, steps in enumerate(moves)
        if used[term]
        for step in steps
    )


def _footprint(width: int, n_nodes: int, cutoff: int, n_modes: int):
    """``(bytes, index dtype)`` that :func:`_assemble` allocates for rows of ``width`` cells.

    The bytes are the strict upper triangle's CSR ``data``/``indices``/
    ``indptr`` arrays at their untrimmed size, the diagonal and one slab's
    value, column and mask tables.  A slab's tables hold at most
    ``GATHER_CELLS`` cells of its rows, or one first-mode value's rows where
    those alone hold more, and never more than a node's rows.
    """
    per_node = cutoff**n_modes
    dim = n_nodes * per_node
    cells = dim * width
    idx = np.int32 if max(cells, dim) <= np.iinfo(np.int32).max else np.int64
    size = np.dtype(idx).itemsize
    inner = per_node // cutoff if n_modes else 1  # the rows of one first-mode value
    tables = min(per_node * width, max(GATHER_CELLS, inner * width)) * (9 + size)
    return cells * (8 + size) + (dim + 1) * size + 8 * dim + tables, idx


@functools.lru_cache(maxsize=16)
def _stencil(steps, cutoff: int):
    """The node-block stencil right of the diagonal: the ``steps`` sorted by column offset.

    Each entry is ``(offset, term, rows, factors)``: the step's column
    offset, its term index into :func:`_node_terms`, the block of rows whose
    target occupation stays below the cutoff, and the bands whose product is
    the element there without its coefficient, each broadcastable over that
    block (an X band, an X^2 band or two X bands).  The factors are
    read-only views of :func:`_bands`, so the cache holds no arrays of its
    own; :func:`_assemble` forms the products.
    """
    bands = _bands(cutoff)
    stencil = []
    for term, step in steps:
        n_modes = len(step)
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


def _assemble(coefficients, terms, steps, idx, omega: float, cutoff: int):
    """Write the node blocks' strict upper triangle row by row in CSR, and the diagonal.

    ``coefficients`` and ``terms`` are each node's ladder and term
    coefficients, as :func:`_prepared` gives them; every row has one CSR
    cell per stencil step.  Each node's diagonal is written by
    :func:`_diagonal`.  Its rows are written in slabs of whole first-mode
    values, as many as fit
    ``GATHER_CELLS`` table cells and at least one, so each slab's rows are a
    box of the node block.  A slab is filled as a dense table whose columns
    are, in column order, the stencil steps right of the diagonal whose term
    the node uses; its stored entries are the nonzero cells in row-major
    order, with ``idx`` indices.  Cells outside a step's rows stay zero, and
    entries that are exactly zero are dropped, so a trap-only node (all of
    its term coefficients are zero: its reduced form is exactly the trap,
    see :func:`vibronic.assembly.reduce_modes`) has no step column and
    stores nothing.

    Returns the matrix and the diagonal, every array of them read-only.
    """
    import scipy.sparse as sp  # loaded by the first build, not by ``import vibronic``

    n_modes = coefficients[0][1].size
    per_node = cutoff**n_modes
    lead = cutoff if n_modes else 1  # first-mode values of a node
    inner = per_node // lead  # the rows of one first-mode value
    dim = len(coefficients) * per_node
    cells = dim * len(steps)  # the unwritten tail is never touched
    bands = _bands(cutoff)
    stencil = _stencil(steps, cutoff)
    data = np.empty(cells)
    indices = np.empty(cells, dtype=idx)
    indptr = np.zeros(dim + 1, dtype=idx)
    diagonal = np.empty(dim)
    pos = 0
    for s, node in enumerate(coefficients):
        first = s * per_node
        _diagonal(node, omega, bands, diagonal[first : first + per_node].reshape((cutoff,) * n_modes))
        coef = terms[s]
        columns = [entry for entry in stencil if coef[entry[1]] != 0.0]
        width = len(columns)
        offsets = np.array([offset for offset, _, _, _ in columns], dtype=idx)
        # first-mode values per slab; a row may store nothing
        height = max(1, GATHER_CELLS // max(1, inner * width))
        for lo in range(0, lead, height):
            hi = min(lo + height, lead)
            vals = cols = keep = table = None  # drop the last slab's tables before the next
            vals = np.zeros(((hi - lo) * inner, width))
            shape = (hi - lo,) + (cutoff,) * (n_modes - 1) + (width,)
            table = vals.reshape(shape, copy=False)
            for j, (_, term, rows, factors) in enumerate(columns):
                if hi - lo < lead:  # cut the step's rows to the slab's first-mode values
                    start, stop = max(rows[0].start, lo), min(rows[0].stop, hi)
                    if start >= stop:
                        continue
                    # only a factor along the first mode is longer than 1 there,
                    # and one of length 1 is already the whole of this step's rows
                    cut = slice(start - rows[0].start, stop - rows[0].start)
                    factors = [f if f.shape[0] == 1 else f[cut] for f in factors]
                    rows = (slice(start - lo, stop - lo),) + rows[1:]
                element = factors[0] * factors[1] if len(factors) == 2 else factors[0]
                table[rows + (j,)] = coef[term] * element
            keep = vals != 0.0
            top, bottom = first + lo * inner, first + hi * inner
            cols = np.add.outer(np.arange(top, bottom, dtype=idx), offsets)
            counts = keep.sum(axis=1, dtype=idx)
            counts[0] += pos
            np.cumsum(counts, out=indptr[top + 1 : bottom + 1])
            end = int(indptr[bottom])
            data[pos:end] = vals[keep]
            indices[pos:end] = cols[keep]
            pos = end
    data.resize(pos, refcheck=False)
    indices.resize(pos, refcheck=False)
    upper = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    for array in (upper.data, upper.indices, upper.indptr, diagonal):
        array.setflags(write=False)
    return upper, diagonal


_memo = {}  # the one key of _prepared -> its preparation and node blocks


def _prepared(model: Model):
    """The inputs and node blocks of a build, ``(beta, coefficients, terms, steps, blocks)``.

    The frame shifts, each node's ladder coefficients and its term
    coefficients (:func:`_node_terms`) and the stencil steps (a tuple), every
    array read-only, and ``blocks``, which maps each cutoff built since to
    its node blocks ``(upper, diagonal)``.  They are kept for the last key
    only: the ``forms`` object, the frame (:attr:`Model.decoupled`) and
    ``params`` at drive 0, which is all that the node blocks read, so
    :meth:`Model.with_drive` siblings in one frame share them.
    """
    key = (model.forms, model.decoupled, dataclasses.replace(model.params, Omega=0.0))
    if key not in _memo:
        _memo.clear()  # the last key's blocks go before the next are built
        beta = _frame_displacements(model)
        params = model.params
        coefficients = tuple(_node_coefficients(f, b, params) for f, b in zip(model.forms, beta))
        terms = tuple(_node_terms(node) for node in coefficients)
        for array in (beta, *terms, *(a for _, l, q in coefficients for a in (l, q))):
            array.setflags(write=False)
        _memo[key] = beta, coefficients, terms, _steps(terms, model.dim), {}
    return _memo[key]


def build_fock_matrix(model: Model, cutoff: int = 8) -> FockOperator:
    """Assemble the molecular operator of ``model`` in the truncated product Fock basis.

    The off-diagonal block between nodes s and t is
    ``model.params.Omega * A[s, t]`` times the phonon identity, stored as
    that one value; of the node blocks only the strict upper triangle and
    the diagonal are stored (see :class:`FockOperator`).  Raises
    :class:`ResourceBudgetError` when the build would allocate more than
    ``MAX_BYTES`` (1 GiB): the upper triangle's CSR arrays at their
    untrimmed size (every stencil step right of the diagonal, in every row),
    the diagonal and one slab's dense tables (at most ``GATHER_CELLS``
    cells, or one first-mode value's rows where those alone hold more; see
    :func:`_footprint`).  That footprint is counted from the row width
    before anything of size ``cutoff**n_modes`` is allocated, and only when
    the node blocks are assembled.  It is one build's, not the process's: it
    leaves out the eigensolver's vectors, the zero-padded warm start, up to
    three ground vectors per sparse stage shape, the node blocks kept from
    earlier builds and the interpreter and libraries.  On the benchmark's
    ``fock-large`` doubling (the triangle, 6 nodes and 4 modes, trap frame,
    cutoffs 4, 8 and 16) the cutoff-16 build's footprint is 102 MB, of which
    the trimmed CSR arrays keep 41 MB (its three trap-only nodes store no
    entry), in a process whose peak resident set reads about 141 MB, set in
    the cutoff-16 eigensolve (``perfbench`` ``peak_rss_mb``; Linux x86-64,
    Python 3.11, NumPy 2.4, SciPy 1.17).

    The phonon frame is read off the model: where ``Omega A = 0`` each
    positive-definite node is centred on its own stationary point, elsewhere
    no node moves (see :func:`_frame_displacements`).  The frame shifts,
    node coefficients and stencil steps, and each built cutoff's node
    blocks, are kept for the last model's ``forms`` object, frame and params
    at drive 0 (see :func:`_prepared`), so the stages of a cutoff doubling
    prepare nothing again, and a :meth:`Model.with_drive` sibling in the
    same frame assembles no cutoff that one has built; after the call the
    last model's node blocks stay in memory, one per built cutoff.  Those
    arrays are shared and read-only, ``FockOperator.displacements`` among
    them.  The matrix is written node row by node row, one slab of rows at a
    time, from the stencil described in the module docstring.  Every row's
    column indices are sorted (int32 below 2**31 entries); entries that are
    exactly zero are not stored.  The links are always read off the model
    itself by :func:`_links`.
    """
    Model.require(model)
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    params = model.params
    n_nodes, n_modes = len(model.forms), model.dim
    beta, coefficients, terms, steps, blocks = _prepared(model)
    if cutoff not in blocks:
        footprint, idx = _footprint(len(steps), n_nodes, cutoff, n_modes)
        if footprint > MAX_BYTES:
            raise ResourceBudgetError(
                f"matrix footprint {footprint/1e9:.2f} GB exceeds budget {MAX_BYTES/1e9:.2f} GB "
                f"(nodes={n_nodes}, modes={n_modes}, cutoff={cutoff})",
                estimated_bytes=footprint,
            )
        blocks[cutoff] = _assemble(coefficients, terms, steps, idx, params.omega, cutoff)
    upper, diagonal = blocks[cutoff]
    return FockOperator(
        matrix=upper,
        diagonal=diagonal,
        n_nodes=n_nodes,
        n_modes=n_modes,
        cutoff=cutoff,
        x0=params.x0,
        displacements=beta,
        links=_links(model),
    )


def _residual_limit(tol: float, energy: float) -> float:
    """Largest accepted ||H v - E v|| for a unit vector v."""
    return tol * max(1.0, abs(energy))


def _checked_pair(op, energy: float, vec: np.ndarray, tol: float, solver: str):
    residual = op @ vec  # H v - E v in this one vector: E v is formed a slab at a time
    for lo in range(0, vec.size, GATHER_CELLS):
        residual[lo : lo + GATHER_CELLS] -= energy * vec[lo : lo + GATHER_CELLS]
    residual = float(np.linalg.norm(residual))
    limit = _residual_limit(tol, energy)
    if not residual <= limit:  # a NaN residual fails too
        raise EigensolverError(
            f"{solver} residual {residual:.3e} exceeds {limit:.3e}", best_estimate=energy
        )
    return energy, vec


def _jacobi_lobpcg(apply, diagonal: np.ndarray, v0: np.ndarray, tol: float):
    """Refine a warm start by block-1 LOBPCG preconditioned with 1/|diag(H) - rho|.

    ``v0`` is left as it is: the iterate x starts as ``v0 / ||v0||``, written
    straight into its row.  ``apply(v, out)`` writes H v into ``out``, as
    :meth:`FockOperator.apply` does, ``diagonal`` is diag(H) and rho the
    Rayleigh quotient of x; shifts below a small floor are raised to it, and
    the preconditioner is formed in one array.  Each iteration applies
    Rayleigh-Ritz to the span of the iterate x, its preconditioned residual w
    and the previous direction p (Knyazev, SIAM J. Sci. Comput. 23, 517
    (2001)), orthonormalized through the Cholesky factor of their Gram
    matrix; p is dropped for a step whenever that factor fails.  The vectors
    are updated in place, and each product is written into its row, so a
    step allocates little beyond its matvec.
    Stops when ||H x - rho x|| meets the limit for ``tol`` at the starting
    rho, or after ``LOBPCG_MAXITER`` iterations; the caller checks the
    residual and hands a miss to ARPACK.
    """
    space = np.zeros((3, 2, v0.size))  # rows x, w, p, each with H times it
    (x, hx), (w, hw), _ = space
    np.divide(v0, np.linalg.norm(v0), out=x)
    apply(x, hx)
    rho = float(x @ hx)
    precond = np.subtract(diagonal, rho)
    np.abs(precond, out=precond)
    np.maximum(precond, JACOBI_FLOOR * max(1.0, abs(rho)), out=precond)
    np.divide(1.0, precond, out=precond)
    limit = _residual_limit(tol, rho)
    rows = 2  # p joins after the first step
    for _ in range(LOBPCG_MAXITER):
        np.multiply(x, -rho, out=w)
        w += hx  # the residual
        if np.linalg.norm(w) <= limit:
            break
        w *= precond
        apply(w, hw)
        products = space[:rows].reshape(2 * rows, -1) @ space[:rows, 0].T
        scale = 1.0 / np.sqrt(np.diagonal(products[::2]))  # unit rows, vectors untouched
        gram = products[::2] * np.outer(scale, scale)
        ritz = products[1::2] * np.outer(scale, scale)
        try:
            factor = np.linalg.cholesky(gram)
            if np.diagonal(factor).min() < GRAM_FLOOR:
                raise np.linalg.LinAlgError("numerically singular Gram matrix")
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
    iteration cap.  ``v0`` is left as it is: LOBPCG normalizes it into its
    own iterate, and only an ARPACK run gets a normalized copy.  Every
    returned pair satisfies
    ``||H v - E v|| <= tol * max(1, |E|)`` for the unit vector ``v``, so E
    lies within that bound of an eigenvalue (see :func:`stage_tol`), while
    the error of ``v`` itself scales as that bound over the spectral gap.
    Raises :class:`EigensolverError` carrying the best estimate when no
    solver meets that bound.
    """
    dim = op.dim
    if dim <= DENSE_CUTOVER:
        vals, vecs = np.linalg.eigh(op.toarray())
        return _checked_pair(op, float(vals[0]), vecs[:, 0], tol, "dense eigensolver")
    if v0 is None:
        v0 = np.ones(dim) / math.sqrt(dim)
    else:
        try:
            pair = _jacobi_lobpcg(op.apply, op.diagonal, v0, tol)
            return _checked_pair(op, *pair, tol, "LOBPCG")
        except (EigensolverError, np.linalg.LinAlgError):
            pass  # ARPACK takes over from the same warm start
        v0 = v0 / np.linalg.norm(v0)
    # only ARPACK stages need it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    maxiter = int(10 * math.sqrt(dim)) + 500
    matvec = LinearOperator((dim, dim), matvec=op.apply, dtype=np.float64)
    try:
        vals, vecs = eigsh(matvec, k=1, which="SA", v0=v0, maxiter=maxiter, tol=tol)
    except ArpackNoConvergence as exc:
        best = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else None
        raise EigensolverError(
            f"eigensolver did not converge within {maxiter} iterations", best_estimate=best
        ) from exc
    return _checked_pair(op, float(vals[0]), vecs[:, 0], tol, "ARPACK")


def stage_tol(e_tol: float) -> float:
    """Residual target of every stage of a doubling that stops at ``e_tol``:
    ``EIG_TOL`` up to 1e-8, ``e_tol * 1e-3`` above.  By Weinstein's bound
    (Parlett, *The Symmetric Eigenvalue Problem*, 10.2), every stage energy
    then lies within that target times max(1, |E|) of an eigenvalue."""
    return EIG_TOL if e_tol <= 1e-8 else e_tol * 1e-3


def converge_cutoff(graph, forms, params: PhysicalParams, *, frame="bare", **solver) -> SolveReport:
    """Double the Fock cutoff from 4 until the ground energy stabilizes.

    This is :func:`converge_scan` over the one row
    ``Model.build(graph, forms, params)``, with its ``solver`` keywords
    ``e_tol`` and ``max_cutoff``; ``frame`` must be ``"bare"`` or
    ``"displaced"`` and selects nothing, as the model decides the frame (see
    :func:`build_fock_matrix`).  The triple and ``frame`` are the spellings
    that perfbench's ``fock-large`` workload passes (ROADMAP item 8).
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
    if frame not in ("bare", "displaced"):
        raise DomainError(f'frame must be "bare" or "displaced", got {frame!r}')
    return converge_scan([Model.build(graph, forms, params)], **solver)[0]


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


def converge_scan(models, *, e_tol: float = 1e-8, max_cutoff: int = 256) -> tuple:
    """Run the cutoff doubling of :func:`converge_cutoff` on every row, in order.

    ``models`` is a sequence of :class:`Model` rows, read one at a time (any
    other row raises :class:`DomainError` when it is reached); returns one
    :class:`SolveReport` per row, each with the stopping rule, the stage
    residual target ``stage_tol(e_tol)`` and the failure handling of a
    one-row call.  Each row's phonon frame is read off its own model, as
    :func:`build_fock_matrix` states.  Three kinds of work are carried from
    row to row.

    *Starting cutoffs.*  A row of shape ``(len(model.forms), model.dim)``
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
    stops only on two consecutive stages closer than ``e_tol``, so it may
    stop at a higher cutoff than :func:`converge_cutoff` on that row alone,
    whose first pair is (4, 8).

    *Operators.*  Every stage calls :func:`build_fock_matrix`, which gives
    consecutive :meth:`Model.with_drive` siblings in one frame the same node
    blocks, each with its own links.

    *Vectors.*  Above ``DENSE_CUTOVER`` a stage starts from the last three
    rows' ground vectors of its shape (nodes, modes, cutoff) and frame
    (:attr:`Model.decoupled`), extrapolated quadratically in the row index,
    whatever model they came from.  It falls back to the zero-padded lower
    stage's vector when that start fails or ends above the lower stage's
    energy, which the nested bases forbid.

    The memory budget counts one build at a time.  Besides that build, a
    scan holds the node blocks that :func:`build_fock_matrix` keeps (one per
    reached cutoff), up to three ground vectors per sparse stage shape and
    the zero-padded warm start; none of these is counted.
    """
    if max_cutoff < 4:
        raise DomainError(f"max_cutoff must be at least 4, got {max_cutoff}")
    tol = stage_tol(e_tol)
    trails = {}  # (nodes, modes, cutoff, decoupled) -> ground vectors of the last three rows
    starts = {}  # (nodes, modes) -> first cutoff of the next row there
    reports = []
    for model in models:
        Model.require(model)
        history = []
        energy_prev = None
        converged = False
        op = state = None
        row_shape = (len(model.forms), model.dim)
        cutoff = starts.get(row_shape, 4)
        # a first stage has no lower one to bound its energy, so it is a dense one
        while cutoff > 4 and row_shape[0] * cutoff ** row_shape[1] > DENSE_CUTOVER:
            cutoff //= 2
        while cutoff <= max_cutoff:
            padded = None if state is None else _zero_pad(op, state, cutoff)
            try:
                op = build_fock_matrix(model, cutoff)
            except ResourceBudgetError:
                if not history:
                    raise
                break
            # dense stages ignore starts, so only sparse ones keep a trail
            shape = (op.n_nodes, op.n_modes, cutoff, model.decoupled)
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
