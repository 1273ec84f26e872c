"""Exact sparse linear algebra over a ground field.

A ``BlockMatrix`` holds one representation: ``entries``, one {column:
scalar} dict per row of its nonzero entries, each an exact scalar of the
ambient field (Fraction for the rationals, ModP for prime fields), with
its shape and field, and nothing else: a caller that names rows holds
the basis keys it built the block from.  ``write_images`` writes the
images of a map straight into rows, a ``block_matrix``'s or, at the
offsets of a block, a larger system's.  The dense ``rows`` are derived
on demand.  The one elimination routine, ``_eliminate``, is a sparse
forward elimination on copies of the rows, with raw ints mod p over F_p:
a column index names the rows that may hold each column, so a pivot step
touches only the rows below it that hold the pivot column, and no row
above a pivot is ever cleared.  Solutions and kernel vectors are read
off the echelon rows by back substitution, which gives the same unique
vectors (free variables zero) that the fully reduced rows give.  A solve
does not carry the transform T along: it logs its row operations, and
only an inconsistent solve rebuilds the one row of T it returns, the
last pivot row, by replaying the log backwards; that row, and every row
of T below it, is the one a full Gauss-Jordan on the same pivot rows
gives.  A solve returns the solution, or that row as a sparse null
functional with its nonzero pairing against the target, and nothing
else: a caller that wants the rank asks ``rank``.

Elimination is fully deterministic.  Columns are taken left to right, so
the pivot columns, the rank, the solutions and the kernels do not depend
on which row supplies a pivot.  The pivot row of a column is the
sparsest row that holds it, the first of those on a tie, in the manner
of Markowitz (Management Sci. 1957; Duff, Erisman and Reid, *Direct
Methods for Sparse Matrices*, ch. 7): it makes less fill-in than the
topmost row.  The null functional depends on the rows chosen, and is
reproducible bit for bit.
"""

from .errors import CompositionNonzero, ConstructionError


class BlockMatrix:
    """A matrix block between two finite bases.

    ``entries[i][j]`` is the coefficient of the i-th target basis vector in
    the image of the j-th source basis vector; a missing entry is zero.
    ``shape`` is (targets, sources).  ``block_matrix`` builds a block from
    a map between keyed bases.
    """

    def __init__(self, entries, shape, field):
        self.entries = entries
        self.shape = shape
        self.field = field

    @property
    def rows(self):
        """The dense rows, built from ``entries`` on each read."""
        zero, ncols = self.field.zero, self.shape[1]
        dense = []
        for entries in self.entries:
            row = [zero] * ncols
            for j, x in entries.items():
                row[j] = x
            dense.append(row)
        return dense


def write_images(entries, keys, image, pos, row=0, column=0, negate=False):
    """Write the images of the source basis vectors ``keys`` into the rows
    ``entries``: ``image(key)`` gives them as (target key, nonzero scalar)
    terms with distinct keys, as ``LinComb.terms()`` does.  The j-th key's
    image fills column ``column + j``, a target key k lands in row ``row +
    pos[k]``, each scalar negated with ``negate``; a target key outside
    ``pos`` is a ConstructionError."""
    try:
        for j, key in enumerate(keys, column):
            for k, s in image(key):
                entries[row + pos[k]][j] = -s if negate else s
    except KeyError:
        raise ConstructionError("element does not lie in the chosen block")


def block_matrix(src_keys, dst_keys, image, field) -> BlockMatrix:
    """The matrix of a linear map between two finite keyed bases, its
    images written by ``write_images``."""
    entries = [{} for _ in dst_keys]
    write_images(entries, src_keys, image, {k: i for i, k in enumerate(dst_keys)})
    return BlockMatrix(entries, (len(dst_keys), len(src_keys)), field)


def coordinates(terms, keys, field) -> list:
    """Dense vector of (key, scalar) terms against the ordered basis ``keys``:
    the one column of the block whose image is ``terms``."""
    column = block_matrix([None], keys, lambda _: terms, field).entries
    return [row.get(0, field.zero) for row in column]


class SolveResult:
    """``solution`` is a list, or None when the system is inconsistent;
    then ``null_row``, a sparse functional {row: scalar} in row order, and
    ``pairing`` say why: u = null_row has u A = 0 while ``pairing`` =
    u . target is nonzero.  Both are None for a solution."""

    def __init__(self, solution, null_row, pairing):
        self.solution = solution
        self.null_row = null_row
        self.pairing = pairing

    @property
    def consistent(self):
        return self.solution is not None


def _raw_rows(entries, p):
    """Copies of {column: scalar} rows for elimination.  Over F_p the
    scalars are the raw ints 0 < v < p of the ModP entries."""
    if p:
        return [{j: x.v for j, x in row.items()} for row in entries]
    return [dict(row) for row in entries]


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


def _eliminate(rows, ncols, field, track):
    """Sparse forward elimination of {column: scalar} rows, in place.

    Returns (pivot columns, operation log or None).  Columns are taken left
    to right; the pivot of column c is the row at or below r that holds c
    with the fewest entries, the one of least index on a tie, swapped up
    to row r and scaled to 1, and only the other rows at or below r that
    hold c are cleared: the former row r among them, at its new place
    when the swap moved it.  ``rows`` ends in echelon form: row k has a
    unit entry at pivots[k] and nothing to its left, the rows below the
    rank are empty.  ``holders[c]`` is the set of rows that may hold column
    c: built from the input, extended on fill-in and swaps, and read once,
    when c is reached; a stale entry fails ``c in rows[i]``.

    With ``track`` the row operations are logged in order, as ("swap", r,
    s), ("scale", r, inv) and ("sub", i, f, r) for row i -= f * row r; the
    transform T with T . original = echelon is their product, and
    ``_transform_row`` rebuilds any one row of it.  The last pivot row of
    T and every row below it are those a full Gauss-Jordan gives, which
    only adds operations on earlier pivot rows.  Over F_p the scalars are
    raw ints mod p throughout.
    """
    p = field.char
    m = len(rows)
    log = [] if track else None
    holders = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        # (entries, index) of each row at or below r that holds c
        below = [(len(row), i) for i in holders[c]
                 if i >= r and c in (row := rows[i])]
        if not below:
            continue
        src = min(below)[1]
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
            for j in rows[src]:
                holders[j].add(src)
            if track:
                log.append(("swap", r, src))
        pivot_row = rows[r]
        inv = pow(pivot_row[c], -1, p) if p else field.one / pivot_row[c]
        if inv != 1:
            pivot_row = rows[r] = _scaled(pivot_row, inv, p)
            if track:
                log.append(("scale", r, inv))
        for _, i in below:
            if i == src:
                continue
            if i == r:  # the former row r, swapped down to src
                i = src
            row = rows[i]
            f = row[c]
            for j, b in pivot_row.items():  # row -= f * pivot_row
                if j in row:
                    a = (row[j] - f * b) % p if p else row[j] - f * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                else:
                    row[j] = -f * b % p if p else -f * b
                    holders[j].add(i)
            if track:
                log.append(("sub", i, f, r))
        pivots.append(c)
        r += 1
    return pivots, log


def _back_substitute(rows, pivots, x, p):
    """Extend ``x``, raw scalars on non-pivot columns, to the pivot
    columns so that every echelon row of ``_eliminate`` pairs with it to
    zero: the last pivot first, each from the values already set."""
    for k in range(len(pivots) - 1, -1, -1):
        s = sum(a * x[j] for j, a in rows[k].items() if j in x)
        if p:
            s %= p
        if s:
            x[pivots[k]] = -s % p if p else -s
    return x


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
    rows = _raw_rows(matrix.entries, matrix.field.char)
    return len(_eliminate(rows, matrix.shape[1], matrix.field, False)[0])


def kernel_basis(matrix: BlockMatrix) -> list:
    """Basis of ker(matrix) as source-coordinate vectors, echelon order:
    one per free column, which it sets to 1 and every other free column
    to 0."""
    field = matrix.field
    p = field.char
    ncols = matrix.shape[1]
    echelon = _raw_rows(matrix.entries, p)
    pivots, _ = _eliminate(echelon, ncols, field, False)
    pivot_set = set(pivots)
    return [_dense(_back_substitute(echelon, pivots, {free: 1}, p), ncols, field)
            for free in range(ncols) if free not in pivot_set]


def linear_solve(matrix: BlockMatrix, target: list) -> SolveResult:
    """Solve matrix . x = target by deterministic elimination.

    Free variables are set to zero, so the returned solution is the unique
    one selected by the fixed basis order.  On failure the null row refers
    to the original (unreduced) rows.
    """
    field = matrix.field
    p = field.char
    m, ncols = matrix.shape
    if len(target) != m:
        raise ValueError("target length %d does not match %d matrix rows"
                         % (len(target), m))
    augmented = _raw_rows(matrix.entries, p)
    for row, t in zip(augmented, target):
        if t:
            row[ncols] = t.v if p else t
    pivots, log = _eliminate(augmented, ncols + 1, field, True)
    if pivots and pivots[-1] == ncols:
        # a pivot in the augmented column exhibits the inconsistency
        row = _transform_row(log, len(pivots) - 1, m, field)
        u = {i: field.of(x) for i, x in row.items()}
        return SolveResult(None, u, sum((x * target[i] for i, x in u.items()), field.zero))
    # x[ncols] = -1 puts the target on the right: A x = target
    x = _back_substitute(augmented, pivots, {ncols: p - 1 if p else -1}, p)
    del x[ncols]
    return SolveResult(_dense(x, ncols, field), None, None)


def apply_matrix(matrix: BlockMatrix, vec: list) -> list:
    zero = matrix.field.zero
    return [sum((a * vec[j] for j, a in row.items()), zero)
            for row in matrix.entries]


def homology_dim(d_in: BlockMatrix, d_out: BlockMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differential blocks.

    d_in maps the next degree into this one, d_out maps this degree down.
    """
    if d_out.shape[1] != d_in.shape[0]:
        raise ValueError("blocks do not share the middle basis")
    for out_row in d_out.entries:
        product = {}
        for k, a in out_row.items():
            for j, b in d_in.entries[k].items():
                product[j] = product.get(j, 0) + a * b
        if any(product.values()):
            raise CompositionNonzero("blocks do not compose to zero")
    cycles = d_out.shape[1] - rank(d_out)
    return cycles - rank(d_in)
