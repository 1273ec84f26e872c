"""Exact dense linear algebra over a ground field.

Matrices are lists of rows; every entry is an exact scalar of the ambient
field (Fraction for the rationals, ModP for prime fields).  Elimination is
fully deterministic: pivots are chosen as the first nonzero entry scanning
columns left to right and rows top to bottom, so solutions, kernels and
certificates are reproducible bit for bit.
"""

from dataclasses import dataclass

from .errors import CompositionNonzero, ConstructionError


@dataclass
class BlockMatrix:
    """A matrix block between two labelled finite bases.

    ``rows[i][j]`` is the coefficient of the i-th target basis vector in the
    image of the j-th source basis vector.
    """

    rows: list
    src_labels: list
    dst_labels: list
    field: object

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.src_labels):
                raise ValueError("row length %d does not match %d source labels"
                                 % (len(row), len(self.src_labels)))
        if len(self.rows) != len(self.dst_labels):
            raise ValueError("row count %d does not match %d target labels"
                             % (len(self.rows), len(self.dst_labels)))

    @property
    def shape(self):
        return (len(self.dst_labels), len(self.src_labels))


def _position(pos, key):
    try:
        return pos[key]
    except KeyError:
        raise ConstructionError("element does not lie in the chosen block")


def block_matrix(src_keys, dst_keys, image, label, field) -> BlockMatrix:
    """The matrix of a linear map between two finite keyed bases.

    ``image(key)`` gives the image of the source basis vector ``key`` as
    (target key, scalar) terms with distinct keys, as ``LinComb.terms()``
    does; ``label(key)`` names a basis vector of either side.
    """
    pos = {k: i for i, k in enumerate(dst_keys)}
    rows = [[field.zero] * len(src_keys) for _ in dst_keys]
    for j, key in enumerate(src_keys):
        for k, s in image(key):
            rows[_position(pos, k)][j] = s
    return BlockMatrix(rows, [label(k) for k in src_keys],
                       [label(k) for k in dst_keys], field)


def coordinates(terms, keys, field) -> list:
    """Dense vector of (key, scalar) terms against the ordered basis ``keys``."""
    pos = {k: i for i, k in enumerate(keys)}
    vec = [field.zero] * len(keys)
    for k, s in terms:
        vec[_position(pos, k)] = s
    return vec


@dataclass
class Inconsistency:
    """Certificate that ``A x = v`` has no solution.

    ``null_row`` is a functional u on the target space with u A = 0 while
    ``pairing`` = u . v is nonzero; ``reduced`` is the row-reduced augmented
    block the elimination ended with.
    """

    null_row: list
    pairing: object
    reduced: list


@dataclass
class SolveResult:
    """``rank`` is the rank of the matrix: pivots are chosen left to right,
    so the pivots outside the augmented column are exactly those of A."""

    solution: list | None
    certificate: Inconsistency | None
    rank: int

    @property
    def consistent(self):
        return self.solution is not None


def _eliminate(rows, ncols, field, track):
    """Gauss-Jordan elimination in place on copies.

    Returns (reduced rows, pivot columns, transform rows or None).  The
    transform T satisfies T . original = reduced.
    """
    m = len(rows)
    work = [list(row) for row in rows]
    transform = None
    if track:
        transform = [[field.one if i == j else field.zero for j in range(m)]
                     for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        src = None
        for i in range(r, m):
            if work[i][c]:
                src = i
                break
        if src is None:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
            if track:
                transform[r], transform[src] = transform[src], transform[r]
        inv = field.one / work[r][c]
        work[r] = [x * inv for x in work[r]]
        if track:
            transform[r] = [x * inv for x in transform[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                if track:
                    transform[i] = [a - f * b
                                    for a, b in zip(transform[i], transform[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots, transform


def rank(matrix: BlockMatrix) -> int:
    _, pivots, _ = _eliminate(matrix.rows, len(matrix.src_labels),
                              matrix.field, track=False)
    return len(pivots)


def kernel_basis(matrix: BlockMatrix) -> list:
    """Basis of ker(matrix) as source-coordinate vectors, echelon order."""
    field = matrix.field
    ncols = len(matrix.src_labels)
    reduced, pivots, _ = _eliminate(matrix.rows, ncols, field, track=False)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def linear_solve(matrix: BlockMatrix, target: list) -> SolveResult:
    """Solve matrix . x = target by deterministic elimination.

    Free variables are set to zero, so the returned solution is the unique
    one selected by the fixed basis order.  On failure the certificate's
    null row refers to the original (unreduced) rows.
    """
    field = matrix.field
    ncols = len(matrix.src_labels)
    if len(target) != len(matrix.dst_labels):
        raise ValueError("target length %d does not match %d target labels"
                         % (len(target), len(matrix.dst_labels)))
    augmented = [list(row) + [t] for row, t in zip(matrix.rows, target)]
    reduced, pivots, transform = _eliminate(augmented, ncols + 1, field,
                                            track=True)
    if ncols in pivots:
        # a pivot in the augmented column exhibits the inconsistency
        row_idx = pivots.index(ncols)
        null_row = transform[row_idx]
        pairing = sum((u * t for u, t in zip(null_row, target)), field.zero)
        return SolveResult(None, Inconsistency(null_row, pairing, reduced),
                           len(pivots) - 1)
    solution = [field.zero] * ncols
    for row_idx, pc in enumerate(pivots):
        solution[pc] = reduced[row_idx][ncols]
    return SolveResult(solution, None, len(pivots))


def apply_matrix(matrix: BlockMatrix, vec: list) -> list:
    field = matrix.field
    return [sum((a * x for a, x in zip(row, vec)), field.zero)
            for row in matrix.rows]


def compose(outer: BlockMatrix, inner: BlockMatrix) -> list:
    """Raw rows of outer . inner (target bases must line up)."""
    if len(outer.src_labels) != len(inner.dst_labels):
        raise ValueError("composition shape mismatch")
    field = outer.field
    cols = [apply_matrix(outer, [row[j] for row in inner.rows])
            for j in range(len(inner.src_labels))]
    return [[cols[j][i] for j in range(len(cols))]
            for i in range(len(outer.dst_labels))]


def homology_dim(d_in: BlockMatrix, d_out: BlockMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differential blocks.

    d_in maps the next degree into this one, d_out maps this degree down.
    """
    if len(d_out.src_labels) != len(d_in.dst_labels):
        raise ValueError("blocks do not share the middle basis")
    for row in compose(d_out, d_in):
        for entry in row:
            if entry:
                raise CompositionNonzero("blocks do not compose to zero")
    cycles = len(d_out.src_labels) - rank(d_out)
    return cycles - rank(d_in)
