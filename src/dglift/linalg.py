"""Exact sparse linear algebra over a ground field.

Matrices are lists of rows; every entry is an exact scalar of the ambient
field (Fraction for the rationals, ModP for prime fields).  The one
elimination routine, ``_eliminate``, is a sparse Gauss-Jordan: each row is a
{column: scalar} dict of its nonzero entries, with raw ints mod p over F_p,
and only what a caller reads is made dense again.  A solve does not carry
the transform T along: it logs its row operations, and only an
inconsistent solve rebuilds the one row of T its certificate needs, by
replaying the log backwards.  Elimination is fully deterministic: pivots
are chosen as the first nonzero entry scanning columns left to right and
rows top to bottom, so solutions, kernels and certificates are
reproducible bit for bit.
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
    ``pairing`` = u . v is nonzero.
    """

    null_row: list
    pairing: object


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


def _sparse_rows(rows, p):
    """Rows as {column: scalar} dicts of their nonzero entries.  Over F_p
    the scalars are the raw ints 0 < v < p of the ModP entries."""
    if p:
        return [{j: v for j, x in enumerate(row) if (v := x.v)} for row in rows]
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(row, n, field):
    """A sparse row of raw scalars as a list of n field scalars."""
    vec = [field.zero] * n
    for j, x in row.items():
        vec[j] = field.of(x)
    return vec


def _scaled(row, s, p):
    if p:
        return {j: x * s % p for j, x in row.items()}
    return {j: x * s for j, x in row.items()}


def _subtract(row, f, pivot_row, p):
    """row -= f * pivot_row in place.  f and the pivot row's entries are
    nonzero, so an entry can only cancel where row already had one."""
    get = row.get
    for j, b in pivot_row.items():
        a = (get(j, 0) - f * b) % p if p else get(j, 0) - f * b
        if a:
            row[j] = a
        else:
            del row[j]


def _eliminate(rows, ncols, field, track):
    """Sparse Gauss-Jordan elimination of {column: scalar} rows, in place.

    Returns (pivot columns, operation log or None); ``rows`` ends reduced.
    With ``track`` the row operations are logged in order, as ("swap", r,
    s), ("scale", r, inv) and ("sub", i, f, r) for row i -= f * row r; the
    transform T with T . original = reduced is their product, and
    ``_transform_row`` rebuilds any one row of it.  Over F_p the scalars
    are raw ints mod p throughout.
    """
    p = field.char
    m = len(rows)
    log = [] if track else None
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        src = next((i for i in range(r, m) if c in rows[i]), None)
        if src is None:
            continue
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
            if track:
                log.append(("swap", r, src))
        inv = pow(rows[r][c], -1, p) if p else field.one / rows[r][c]
        if inv != 1:
            rows[r] = _scaled(rows[r], inv, p)
            if track:
                log.append(("scale", r, inv))
        for i in range(m):
            f = rows[i].get(c) if i != r else None
            if f:
                _subtract(rows[i], f, rows[r], p)
                if track:
                    log.append(("sub", i, f, r))
        pivots.append(c)
        r += 1
    return pivots, log


def _transform_row(log, q, m, field):
    """Row q of the transform T of an ``_eliminate`` log, as a sparse row.

    e_q . T is e_q times the logged operations' matrices, last operation
    first, so the log is replayed backwards on a row vector v: a swap
    exchanges v_r and v_s, a scaling sets v_r = v_r * inv, and row i -=
    f * row r sets v_r = v_r - f * v_i.  Exact arithmetic makes this the
    very row that tracking T through the elimination gives.
    """
    p = field.char
    v = [0] * m
    v[q] = 1 if p else field.one
    for op in reversed(log):
        if op[0] == "sub":
            _, i, f, r = op
            if v[i]:
                v[r] = (v[r] - f * v[i]) % p if p else v[r] - f * v[i]
        elif op[0] == "scale":
            _, r, inv = op
            v[r] = v[r] * inv % p if p else v[r] * inv
        else:
            _, r, s = op
            v[r], v[s] = v[s], v[r]
    return {j: x for j, x in enumerate(v) if x}


def rank(matrix: BlockMatrix) -> int:
    rows = _sparse_rows(matrix.rows, matrix.field.char)
    return len(_eliminate(rows, len(matrix.src_labels), matrix.field, False)[0])


def kernel_basis(matrix: BlockMatrix) -> list:
    """Basis of ker(matrix) as source-coordinate vectors, echelon order."""
    field = matrix.field
    ncols = len(matrix.src_labels)
    reduced = _sparse_rows(matrix.rows, field.char)
    pivots, _ = _eliminate(reduced, ncols, field, False)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = -field.of(row.get(free, 0))
        basis.append(vec)
    return basis


def linear_solve(matrix: BlockMatrix, target: list) -> SolveResult:
    """Solve matrix . x = target by deterministic elimination.

    Free variables are set to zero, so the returned solution is the unique
    one selected by the fixed basis order.  On failure the certificate's
    null row refers to the original (unreduced) rows.
    """
    field = matrix.field
    p = field.char
    ncols = len(matrix.src_labels)
    if len(target) != len(matrix.dst_labels):
        raise ValueError("target length %d does not match %d target labels"
                         % (len(target), len(matrix.dst_labels)))
    augmented = _sparse_rows(matrix.rows, p)
    rhs = _sparse_rows([target], p)[0]
    for i, t in rhs.items():
        augmented[i][ncols] = t
    pivots, log = _eliminate(augmented, ncols + 1, field, True)
    if pivots and pivots[-1] == ncols:
        # a pivot in the augmented column exhibits the inconsistency
        m = len(target)
        null_row = _dense(_transform_row(log, len(pivots) - 1, m, field), m, field)
        pairing = sum((u * t for u, t in zip(null_row, target)), field.zero)
        return SolveResult(None, Inconsistency(null_row, pairing), len(pivots) - 1)
    solution = [field.zero] * ncols
    for row, pc in zip(augmented, pivots):
        if ncols in row:
            solution[pc] = field.of(row[ncols])
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
