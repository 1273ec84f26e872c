"""Obstruction calculus and the naive-lifting decision procedure.

For a semifree module N with d(e_lam) = sum e_mu b[mu][lam], the
obstruction map sends

    e_lam -> sum_mu e_mu (x) delta(b[mu][lam])   in N (x) J,

and equals sigma_N d rho_N, the failure of the graded section rho_N to be
a chain map.  N admits a naive lift exactly when there is a family
gamma = {gamma_lam}, with gamma_lam in (N (x) J) of e_lam's bidegree,
solving

    d(gamma_lam) = sum_{mu<lam} (gamma_mu b[mu][lam] + e_mu (x) delta(b[mu][lam])).

The decision is tagged with one of three methods:

* trivial          -- zero differential: gamma = 0 works outright, and no
                      system is built;
* rank2-corollary  -- two basis elements with d(e') = e b: J_0 = 0 shrinks
                      the γ-system to one block, (-1)^{|e|} d_J, so N
                      lifts iff delta(b) is a boundary in J;
* global-solve     -- any other module: all gamma coordinates are unknowns
                      of one simultaneous linear system over the ground
                      field, assembled from the bidegree blocks of N (x) J
                      and solved by deterministic elimination (free
                      variables pinned to zero).

No gamma_mu is ever chosen label by label: a greedy choice of gamma_mu
can block a later equation even when a simultaneous solution exists.
Every gamma coordinate stays a free unknown to the end, and only the
equations arrive label by label.  N's differential is strictly
triangular, so the equation of e_lam reads gamma_mu for mu <= lam alone:
the γ-system is block lower-triangular in label order (the block
triangular form of Pothen and Fan, ACM TOMS 1990, here given by N's
filtration), and the equations of the labels up to lam, in the unknowns
of those labels, are a leading block of it.  ``check_lift`` writes the
equations of one label at a time (``_equation_block``), their right-hand
side the obstruction value of e_lam, and feeds them to one elimination
that it resumes label by label (``linalg.linear_solve`` with a
``linalg.Elimination``): each block is reduced by the pivots found so
far, then pivoted on its remaining columns; a label without equations
is skipped.  The first label whose equations make the system
inconsistent decides NOT_LIFTABLE, and nothing of a later label is laid
out, written or eliminated; else the solution after the last label,
free variables zero, is the one a single solve of the whole system
gives.  LIFTABLE reports carry the gamma family;
NOT_LIFTABLE reports carry one kind of machine-checkable inconsistency
certificate, "gamma-system", whatever the method: a head read from the
bases alone (``_certificate_head``), which names that first obstructed
label, "obstructed_at", and counts the unknowns and equations of the
labels up to it, and a left null functional of those equations, its rows
named (``GammaBlocks.name``), with nonzero pairing against their
right-hand side.  Those equations hold no unknown of a later label, so
the functional annihilates every column of the whole system.  The
γ-system is laid out by integer block offsets (``gamma_layout``), one
label at a time: the rows of equation lam at the label nu start at one
integer, the unknowns of gamma_mu at nu at another, and a J basis key
sits at its index in ``diagonal_block_keys``; the builder writes by those
positions, and its right-hand side and witness reader, the row names,
and the checker's rows and unknowns, read the same enumeration of the
system.  A layout is a local: ``check_lift`` makes one and passes it to
the builder, the head and the witness reader, and ``verify_certificate``
makes its own and lays out the stated prefix at once, so no layout
outlives its call and the checker reads none of the decision's state.
``verify_certificate`` calls no builder and eliminates nothing: it
compares the same head, and pairs the functional with the columns of the
unknowns up to the stated label, built by element arithmetic (d(t) and
t b for t in N (x) J, whose J coefficients compute in B^e and are read
back by sigma), so a wrong sign in the builder's images, or in the J key
maps it writes them from, cannot certify itself.  ``verify_witness``
checks the defining identity by the same element rules, so such a sign
cannot verify its own witness either.
"""

from bisect import bisect_right

from . import linalg
from .envelope import (delta, diagonal_block_keys, diagonal_key_diff,
                       diagonal_key_left, diagonal_key_right)
from .errors import ConstructionError
from .lincomb import merge
from .semifree import SemifreeModule, TensorJElement

LIFTABLE = "LIFTABLE"
NOT_LIFTABLE = "NOT_LIFTABLE"

METHOD_TRIVIAL = "trivial"
METHOD_RANK2 = "rank2-corollary"
METHOD_GLOBAL = "global-solve"


def obstruction_values(N: SemifreeModule, mode="formula") -> dict:
    """The obstruction map on the basis, as {label: element of N (x) J}.

    mode "formula" is the canonical connection (gamma = 0) on d(e_lam),
    that is ``criterion_rhs`` with no gamma; mode "splitting" computes
    sigma_N d rho_N.  The two agree exactly.
    """
    if mode == "formula":
        return {lam: criterion_rhs(N, {}, lam) for lam in N.labels}
    if mode == "splitting":
        return {lam: N.sigma_n(N.rho_n(N.gen(lam)).diff()) for lam in N.labels}
    raise ValueError("unknown mode %r" % mode)


def obstruction_apply(N: SemifreeModule, v, mode="formula") -> TensorJElement:
    """The obstruction map on a general element of N."""
    if mode == "splitting":
        return N.sigma_n(N.rho_n(v).diff())
    values = obstruction_values(N, mode)
    total = N.tensor_zero()
    for lab, b in v.coeffs.items():
        total = total + values[lab] * b
    return total


def nabla(N: SemifreeModule, gamma: dict, coeffs: dict) -> TensorJElement:
    """sum over {label: b} of gamma_label b + e_label (x) delta(b), a missing
    gamma_label read as zero: the connection law D(e b) = D(e) b + e (x) delta(b)."""
    out = {}
    for lab, b in coeffs.items():
        g = gamma.get(lab)
        if g:
            for k, c in (g * b).coeffs.items():
                merge(out, k, c)
        merge(out, lab, delta(b))
    return TensorJElement._raw(N, out)


class Connection:
    """A degree-0 graded map N -> N (x) J with D(nb) = D(n)b + n (x) delta(b).

    Determined by its values gamma_lam = D(e_lam); the canonical connection
    of the chosen basis has all gamma_lam = 0.
    """

    def __init__(self, module: SemifreeModule, gamma=None):
        self.module = module
        self.gamma = {}
        gamma = gamma or {}
        for lab in module.labels:
            g = gamma.get(lab)
            if g is None:
                g = module.tensor_zero()
            if g:
                i = module.index[lab]
                if g.bidegree() != (module.degrees[i], module.weights[i]):
                    raise ConstructionError(
                        "gamma for %s has bidegree %r, expected %r"
                        % (lab, g.bidegree(),
                           (module.degrees[i], module.weights[i])))
            self.gamma[lab] = g

    def __call__(self, v) -> TensorJElement:
        return nabla(self.module, self.gamma, v.coeffs)

    def __sub__(self, other):
        """The difference as a plain B-linear graded map (label values)."""
        return {lab: self.gamma[lab] - other.gamma[lab] for lab in self.module.labels}


def canonical_connection(N: SemifreeModule) -> Connection:
    return Connection(N, {})


def psi_apply(D: Connection, v) -> TensorJElement:
    """(d D - D d)(v), evaluated directly on the element."""
    return D(v).diff() - D(v.diff())


def psi_values(D: Connection) -> dict:
    return {lab: psi_apply(D, D.module.gen(lab)) for lab in D.module.labels}


def criterion_rhs(N: SemifreeModule, gamma: dict, lam: str) -> TensorJElement:
    """sum_{mu<lam} (gamma_mu b[mu][lam] + e_mu (x) delta(b[mu][lam])), the
    connection of gamma applied to d(e_lam)."""
    return nabla(N, gamma, {N.labels[i]: entry for i, entry in N.columns[N.index[lam]]})


def verify_witness(N: SemifreeModule, gamma: dict) -> bool:
    """Exact check of the defining identity of a lifting family.  False
    for a family that names a label N does not have."""
    if not gamma.keys() <= N.index.keys():
        return False
    for lam in N.labels:
        g = gamma.get(lam, N.tensor_zero())
        if g.diff() != criterion_rhs(N, gamma, lam):
            return False
    return True


class ObstructionReport:
    """A decision (LIFTABLE or NOT_LIFTABLE) and its method, with the
    obstruction as {label: TensorJElement}, the witness gamma in the same
    form when LIFTABLE, and the serialisable certificate when NOT_LIFTABLE
    (the other of the two is None)."""

    def __init__(self, decision, method, obstruction, witness, certificate):
        self.decision = decision
        self.method = method
        self.obstruction = obstruction
        self.witness = witness
        self.certificate = certificate

    @property
    def liftable(self):
        return self.decision == LIFTABLE


def _certificate_head(layout, label):
    """The head of a certificate that the γ-system laid out by ``layout``,
    a ``gamma_layout`` pair, is inconsistent on the equations of the
    labels up to ``label``, read from the bases alone: the label, and the
    numbers of unknowns and equations of those labels, laid out here if
    they are not yet."""
    unknowns, equations = layout
    lam = unknowns.module.index[label]
    return {"kind": "gamma-system", "obstructed_at": label,
            "unknowns": unknowns.through(lam), "equations": equations.through(lam)}


class GammaBlocks:
    """One side of the γ-system laid out by integer block offsets.

    Block (l, k) is e_k (x) J_(n, w) with (n, w) = (|e_l| - |e_k| - shift,
    w_l - w_k): with shift 0 the unknowns of gamma_l, with shift 1 the
    coordinates of equation l.  The labels are laid out in order, each
    when first asked for (``through``): block (l, k) from the integer
    ``start[l][k]``, label l's blocks from ``bounds[l]`` to
    ``bounds[l + 1]``, and within a block the J basis key j sits at its
    index in ``diagonal_block_keys(B, n, w)``.  ``label_blocks[l]`` lists
    label l's nonempty blocks as (start, k, J keys), the one list of the
    blocks.  A block with n < 1 or w < 1 is empty by bidegree (m1 != 1
    has both degrees positive), and no keys are listed for it.  Only the
    equations side, which the builder writes into, indexes its keys:
    ``positions[n, w][j]`` for each nonempty block laid out.  Laying out
    a label adds blocks and changes none.  A layout is a local of the one
    decision or check that lays it out, and dies with it."""

    def __init__(self, N: SemifreeModule, shift):
        self.module = N
        self.bidegree = [[(n - shift - d, w - wt) for d, wt in zip(N.degrees, N.weights)]
                         for n, w in zip(N.degrees, N.weights)]
        self.start, self.label_blocks = [], []
        self.positions = {} if shift else None
        self.bounds = [0]

    def through(self, l):
        """Lay out the labels up to l, those not laid out yet; the number
        of indices their blocks take."""
        B, positions = self.module.algebra, self.positions
        for row in self.bidegree[len(self.start):l + 1]:
            size, starts, blocks = self.bounds[-1], [], []
            for k, (n, w) in enumerate(row):
                starts.append(size)
                if n < 1 or w < 1:
                    continue
                keys = diagonal_block_keys(B, n, w)
                if keys:
                    blocks.append((size, k, keys))
                    size += len(keys)
                    if positions is not None and (n, w) not in positions:
                        positions[n, w] = {key: i for i, key in enumerate(keys)}
            self.start.append(starts)
            self.label_blocks.append(blocks)
            self.bounds.append(size)
        return self.bounds[l + 1]

    def offsets(self, l, k):
        """Block (l, k)'s J key positions and start, on the equations side
        of a laid-out label; an empty block has no positions."""
        return self.positions.get(self.bidegree[l][k], {}), self.start[l][k]

    def position(self, l, key):
        """The index of the tensor key (label, m1, m2, rm) in block l, on
        the equations side.  Each caller asks for a key of an element of
        block l's bidegree, so a KeyError here is a fault of the program,
        not of its input."""
        k = self.module.index[key[0]]
        return self.start[l][k] + self.positions[self.bidegree[l][k]][key[1:]]

    def block_of(self, i):
        """(l, k, J key) at index i, laid out: the label is the last whose
        blocks start at or before i, and the block the last of its blocks
        that does, since an empty block starts where the next one does."""
        l = bisect_right(self.bounds, i) - 1
        k = bisect_right(self.start[l], i) - 1
        keys = diagonal_block_keys(self.module.algebra, *self.bidegree[l][k])
        return l, k, keys[i - self.start[l][k]]

    def name(self, i):
        """The name of equation row i."""
        l, k, key = self.block_of(i)
        N = self.module
        return "eq_%s[%s]" % (N.labels[l], N.tensor_key_label((N.labels[k],) + key))


def gamma_layout(N: SemifreeModule):
    """The unknowns and the equations of N's γ-system, as GammaBlocks,
    nothing laid out yet: a fresh pair on each call, which its caller
    passes on and extends with ``through``."""
    return GammaBlocks(N, 0), GammaBlocks(N, 1)


def _later(N: SemifreeModule):
    """The structure entries by row: later[mu] = [(lam, b[mu][lam])]."""
    later = [[] for _ in N.labels]
    for lam, column in enumerate(N.columns):
        for mu, entry in column:
            later[mu].append((lam, entry))
    return later


def _equation_block(N: SemifreeModule, layout, lam, obstruction):
    """The equations of e_lam in the γ-system, as (matrix, right-hand
    side), at the offsets of ``layout``, N's ``gamma_layout``, which it
    lays out through lam.

    Unknown block mu: the (|e_mu|, w_mu) piece of N (x) J, whose basis
    element t = e_nu (x) j sits in block (mu, nu) of the layout's
    unknowns.  Equation block lam: the piece one homological degree lower.
    The column of t holds d(t) in equation mu, that is e_nu' (x) b[nu'][nu] j
    for each nu' in column nu and (-1)^{|e_nu|} e_nu (x) d(j), and
    -(e_nu (x) j b[mu][lam]) in every later equation lam.  So the rows of
    equation lam, numbered from its first, hold d(t) for the unknowns of
    gamma_lam and -(t b[mu][lam]) for those of each gamma_mu with
    b[mu][lam] != 0, mu < lam, and the matrix spans the unknowns of the
    labels up to lam.  Each piece is written by ``linalg.write_images``
    from a J key map applied to an unknown block's keys, at the integer
    offsets of the blocks, the column of t at block (mu, nu)'s offset plus
    j's index, and no tensor key is built: b j, -(j b), and d(j) times
    (-1)^{|e_nu|}, the maps negating where asked, all in the raw scalars
    that ``linalg.linear_solve`` eliminates.  The pieces land on distinct
    entries; the order of a row's entries reaches no output, since no
    result of the elimination depends on it.  The right-hand side is the
    obstruction value of e_lam.  The rank-2 corollary is the system in its
    smallest case: for a basis e, e' with d(e') = e b, J_0 = 0 empties
    every block but e (x) J_(n+1, w) -> e (x) J_(n, w), (n, w) the
    bidegree of b, where the matrix is (-1)^{|e|} d_J and the right-hand
    side delta(b).
    """
    B = N.algebra
    unknowns, equations = layout
    ncols = unknowns.through(lam)
    equations.through(lam)
    first = equations.bounds[lam]
    entries = [{} for _ in range(equations.bounds[lam + 1] - first)]
    for mu, entry in N.columns[lam]:
        for column, nu, keys in unknowns.label_blocks[mu]:
            positions, start = equations.offsets(lam, nu)
            linalg.write_images(entries, diagonal_key_right(B, keys, entry, True),
                                positions, start - first, column)
    for column, nu, keys in unknowns.label_blocks[lam]:
        for i, entry in N.columns[nu]:
            positions, start = equations.offsets(lam, i)
            linalg.write_images(entries, diagonal_key_left(B, entry, keys),
                                positions, start - first, column)
        positions, start = equations.offsets(lam, nu)
        linalg.write_images(entries, diagonal_key_diff(B, keys, N.degrees[nu] % 2),
                            positions, start - first, column)
    rhs = [B.field.zero] * len(entries)
    for key, s in obstruction[N.labels[lam]].terms():
        rhs[equations.position(lam, key) - first] = s
    return linalg.BlockMatrix(entries, (len(entries), ncols), B.field), rhs


def _read_witness(N: SemifreeModule, layout, solution):
    """The gamma family of a solution of N's γ-system, laid out by
    ``layout``, up to the last label with an equation: the unknowns after
    it hold in no equation, so they are free, and zero."""
    labels = N.labels
    terms = {lab: [] for lab in labels}
    for lab, blocks in zip(labels, layout[0].label_blocks):
        for column, nu, keys in blocks:
            head = (labels[nu],)
            terms[lab] += [(head + key, s) for key, s in
                           zip(keys, solution[column:column + len(keys)]) if s]
    return {lab: TensorJElement.from_terms(N, t) for lab, t in terms.items()}


def check_lift(N: SemifreeModule) -> ObstructionReport:
    """Decide whether N lifts naively, with a verifiable witness either way:
    the equations of one label at a time, until the first label at which
    the γ-system is inconsistent, or to the last."""
    obstruction = obstruction_values(N)
    if not any(N.columns):
        witness = {lab: N.tensor_zero() for lab in N.labels}
        return ObstructionReport(LIFTABLE, METHOD_TRIVIAL, obstruction, witness, None)
    tag = METHOD_RANK2 if N.rank == 2 else METHOD_GLOBAL
    layout = gamma_layout(N)
    equations = layout[1]
    elimination = linalg.Elimination(N.algebra.field)
    solution = []
    for lam, label in enumerate(N.labels):
        if equations.through(lam) == equations.bounds[lam]:
            continue  # e_lam has no equation, so nothing to eliminate
        result = linalg.linear_solve(*_equation_block(N, layout, lam, obstruction),
                                     elimination)
        if not result.consistent:
            cert = _certificate_head(layout, label)
            cert["null_functional"] = [{"row": equations.name(i), "value": str(c)}
                                       for i, c in result.null_row.items()]
            cert["pairing"] = str(result.pairing)
            return ObstructionReport(NOT_LIFTABLE, tag, obstruction, None, cert)
        solution = result.solution
    witness = _read_witness(N, layout, solution)
    return ObstructionReport(LIFTABLE, tag, obstruction, witness, None)


def verify_certificate(N: SemifreeModule, report: ObstructionReport) -> bool:
    """Re-check the certified inconsistency: u . A = 0 and u . rhs != 0.

    The keys must be those of ``_certificate_head`` and "null_functional"
    and "pairing", each head field the head's for the stated label
    "obstructed_at", and every named row an equation of a label up to it.
    No builder is called and nothing eliminated: the column of each
    unknown of those labels is built by element arithmetic through B^e
    (``_gamma_columns``), and only the bases are shared.  The unknowns of
    a later label mu hold d(t) in equation mu and t b in equations after
    it, so they miss every named row and pair with u to zero.  False,
    never an exception, for a functional that is not a list of {"row":
    label, "value": text} items, names a row outside those equations or
    names a row twice, or states a value other than the field's own text
    of a scalar (so no zero denominator, sign, padding or unreduced
    fraction), for a stated label that is not a text naming a basis
    element of N, for a missing or an extra key, in the certificate or in
    an item, and for any stated head field other than the system's, in
    value or in type."""
    cert = report.certificate
    items = cert.get("null_functional") if isinstance(cert, dict) else None
    if not isinstance(items, list) or not all(
            isinstance(item, dict) and item.keys() == {"row", "value"}
            and isinstance(item["row"], str) for item in items):
        return False
    label = cert.get("obstructed_at")
    if not isinstance(label, str) or label not in N.index:
        return False
    layout = gamma_layout(N)
    head = _certificate_head(layout, label)
    # repr compares JSON values type-exactly: 4.0 and True are not 4
    if cert.keys() != head.keys() | {"null_functional", "pairing"} or any(
            repr(cert[key]) != repr(value) for key, value in head.items()):
        return False
    field = N.algebra.field
    rows, columns, rhs = _gamma_columns(N, layout, N.index[label])
    stated = {}
    for item in items:
        row = rows.get(item["row"])
        ui = _parse_scalar(field, item["value"])
        if row is None or row in stated or ui is None:
            return False
        stated[row] = ui
    u = {row: ui for row, ui in stated.items() if ui}
    for column in columns(u):
        if sum((u[k] * s for k, s in column if k in u), field.zero):
            return False
    pairing = sum((u[k] * s for k, s in rhs if k in u), field.zero)
    return bool(pairing) and str(pairing) == cert.get("pairing")


def _gamma_columns(N: SemifreeModule, layout, top):
    """The equations of the labels up to ``top`` from elements: ({row
    label: row index}, columns, right-hand side terms), the rows and
    unknowns those of ``layout``, N's ``gamma_layout`` laid out through
    ``top``.

    ``columns(u)`` yields the column of each unknown t = e_nu (x) j of
    block mu <= top as (row index, scalar) terms: d(t) in equation mu and
    -(t b[mu][lam]) in each later equation lam <= top.  Both are computed
    by the element rules of N (x) J, whose J coefficients compute in B^e,
    so they do not use the J key maps the builder does.  A column all of
    whose equations miss the support of u pairs with u to zero and is
    skipped."""
    unknowns, equations = layout
    labels, later = N.labels, _later(N)
    one = N.algebra.field.one
    size = equations.bounds[top + 1]

    def columns(u):
        hit = {equations.block_of(i)[0] for i in u}
        for mu in range(top + 1):
            entries = [(lam, entry) for lam, entry in later[mu] if lam in hit]
            if mu not in hit and not entries:
                continue
            for _, nu, keys in unknowns.label_blocks[mu]:
                for key in keys:
                    t = TensorJElement.from_terms(N, [((labels[nu],) + key, one)])
                    column = ([(equations.position(mu, k), s) for k, s in t.diff().terms()]
                              if mu in hit else [])
                    for lam, entry in entries:
                        column.extend((equations.position(lam, k), -s)
                                      for k, s in (t * entry).terms())
                    yield column

    return ({equations.name(i): i for i in range(size)}, columns,
            [(equations.position(lam, k), s) for lam in range(top + 1)
             for k, s in criterion_rhs(N, {}, labels[lam]).terms()])


def _parse_scalar(field, text):
    """A stated value as a field scalar: "n" or "n/d", and only the text
    the field itself prints for that scalar ("1", not "+1", "01" or
    "2/2"; over F_p, a residue 0 <= n < p); None for anything else."""
    if not isinstance(text, str):
        return None
    num, slash, den = text.partition("/")
    try:
        value = field.of(int(num))
        if slash:
            value = value / field.of(int(den))
    except (ValueError, ZeroDivisionError):
        return None
    return value if str(value) == text else None
