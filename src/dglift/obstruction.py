"""Obstruction calculus and the naive-lifting decision procedure.

For a semifree module N with d(e_lam) = sum e_mu b[mu][lam], the
obstruction map sends

    e_lam -> sum_mu e_mu (x) delta(b[mu][lam])   in N (x) J,

and equals sigma_N d rho_N, the failure of the graded section rho_N to be
a chain map.  N admits a naive lift exactly when there is a family
gamma = {gamma_lam}, with gamma_lam in (N (x) J) of e_lam's bidegree,
solving

    d(gamma_lam) = sum_{mu<lam} (gamma_mu b[mu][lam] + e_mu (x) delta(b[mu][lam])).

The decision runs by one of three methods:

* trivial      -- zero differential: gamma = 0 works outright;
* rank2        -- two basis elements with d(e') = e b: since J_0 = 0
                  forces gamma_e = 0, solvability reduces to delta(b)
                  being a boundary in J, decided in one bidegree block;
* global       -- all gamma coordinates are unknowns of one simultaneous
                  linear system over the ground field, assembled from the
                  bidegree blocks of N (x) J and solved by deterministic
                  elimination (free variables pinned to zero).

The system is solved globally rather than basis element by basis element:
a greedy choice of gamma_mu can block a later equation even when a
simultaneous solution exists.  The right-hand side of either system is
the obstruction cocycle itself, read from the values ``check_lift`` has
already computed.  Each system has one builder, which returns the matrix,
the right-hand side, a reader from a solution to the gamma family, the
certificate head given the rank, and a namer of the matrix rows;
``check_lift`` solves once.  LIFTABLE reports carry the gamma family;
NOT_LIFTABLE reports carry a machine-checkable inconsistency certificate
(a left null functional of the system, its rows named, with nonzero
pairing against the right-hand side).  ``verify_certificate`` does not
trust that builder's images: it takes the certificate head (with the
rank of the builder's matrix) from it, but pairs the functional with
columns built by element arithmetic in N (x) B^e and B^e (d(t) and t b
for t in N (x) J, d(j) for j in J, each brought back by sigma), so a
wrong sign in the builder's images, or in the J key maps that the
builder and DiagonalElement arithmetic share, cannot certify itself.
"""

from . import linalg
from .envelope import (DiagonalElement, delta, diagonal_block_keys,
                       diagonal_diff_block, diagonal_key_diff, diagonal_key_left,
                       diagonal_key_right, diagonal_label, diagonal_vec, sigma)
from .errors import ConstructionError
from .semifree import SemifreeModule, TensorJElement

LIFTABLE = "LIFTABLE"
NOT_LIFTABLE = "NOT_LIFTABLE"

METHOD_TRIVIAL = "trivial"
METHOD_RANK2 = "rank2-corollary"
METHOD_GLOBAL = "global-solve"


def obstruction_values(N: SemifreeModule, mode="formula") -> dict:
    """The obstruction map on the basis, as {label: element of N (x) J}.

    mode "formula" reads the structure matrix directly; mode "splitting"
    computes sigma_N d rho_N.  The two agree exactly.
    """
    out = {}
    if mode == "formula":
        for lam, column in zip(N.labels, N.columns):
            out[lam] = TensorJElement(N, {N.labels[i]: delta(entry)
                                          for i, entry in column})
    elif mode == "splitting":
        for lam in N.labels:
            out[lam] = N.sigma_n(N.rho_n(N.gen(lam)).diff())
    else:
        raise ValueError("unknown mode %r" % mode)
    return out


def obstruction_apply(N: SemifreeModule, v, mode="formula") -> TensorJElement:
    """The obstruction map on a general element of N."""
    if mode == "splitting":
        return N.sigma_n(N.rho_n(v).diff())
    values = obstruction_values(N, mode)
    total = N.tensor_zero()
    for lab, b in v.coeffs.items():
        total = total + values[lab] * b
    return total


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
        N = self.module
        total = N.tensor_zero()
        for lab, b in v.coeffs.items():
            total = total + self.gamma[lab] * b + TensorJElement(N, {lab: delta(b)})
        return total

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
    """sum_{mu<lam} (gamma_mu b[mu][lam] + e_mu (x) delta(b[mu][lam]))."""
    total = N.tensor_zero()
    for i, entry in N.columns[N.index[lam]]:
        mu = N.labels[i]
        g = gamma.get(mu)
        if g:
            total = total + g * entry
        total = total + TensorJElement(N, {mu: delta(entry)})
    return total


def verify_witness(N: SemifreeModule, gamma: dict) -> bool:
    """Exact check of the defining identity of a lifting family."""
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


def _rank2_target(N: SemifreeModule, obstruction):
    """(e, e', n, w, delta(b)) for a two-element basis with d(e') = e b:
    delta(b), the obstruction value of e' at e, lies in J_(n, w)."""
    e, ep = N.labels
    n, w = N.degrees[1] - N.degrees[0] - 1, N.weights[1] - N.weights[0]
    return e, ep, n, w, obstruction[ep].coeffs.get(e) or DiagonalElement(N.algebra, {})


def _rank2_system(N: SemifreeModule, obstruction):
    """Boundary-membership test for a two-element basis with d(e') = e b:
    is delta(b), the obstruction value of e' at e, a boundary in J?

    Valid in both directions because B_0 = R makes J_0 = 0, which pins
    gamma_e to zero and gamma_e' to e (x) c.  The system is the diagonal
    block from (n + 1, w) against the coordinates of delta(b) in (n, w),
    the bidegree of b.
    """
    B = N.algebra
    e, ep, n, w, target = _rank2_target(N, obstruction)
    matrix = diagonal_diff_block(B, n + 1, w)

    def read_witness(solution):
        c = DiagonalElement.from_terms(
            B, zip(diagonal_block_keys(B, n + 1, w), solution))
        return {e: N.tensor_zero(),
                ep: TensorJElement(N, {e: -c if N.degrees[0] % 2 else c})}

    def head(rank):
        return {"kind": "boundary-membership", "source_bidegree": [n + 1, w],
                "target_bidegree": [n, w], "source_dim": matrix.shape[1],
                "target_dim": matrix.shape[0], "rank": rank, "target": str(target)}

    rows = diagonal_block_keys(B, n, w)
    return (matrix, diagonal_vec(target, rows), read_witness, head,
            lambda i: diagonal_label(B, rows[i]))


def _gamma_keys(N: SemifreeModule):
    """The keys of the γ-system's unknowns and equations, in order, and
    the later structure entries {mu: [(lam, b[mu][lam])]}."""
    unknowns, equations = [], []
    for lab, n, w in zip(N.labels, N.degrees, N.weights):
        unknowns.extend(("γ", lab, k) for k in N.tensor_keys(n, w))
        equations.extend(("eq", lab, k) for k in N.tensor_keys(n - 1, w))
    later = {lab: [] for lab in N.labels}
    for lam, column in zip(N.labels, N.columns):
        for i, entry in column:
            later[N.labels[i]].append((lam, entry))
    return unknowns, equations, later


def _gamma_label(N: SemifreeModule, key):
    return "%s_%s[%s]" % (key[0], key[1], N.tensor_key_label(key[2]))


def _assemble_global_system(N: SemifreeModule, obstruction):
    """One simultaneous linear system in all gamma coordinates.

    Unknown blocks: for each mu, the (|e_mu|, w_mu) block of N (x) J, whose
    basis element t = e_nu (x) j has key (nu, J key of j).  Equation
    blocks: for each lam, the block one homological degree lower.  The
    column of t holds d(t) in equation mu, that is e_nu' (x) b[nu'][nu] j
    for each nu' in column nu and (-1)^{|e_nu|} e_nu (x) d(j), and
    -(e_nu (x) j b[mu][lam]) in every later equation lam.  These pieces
    land on distinct keys, so each is written as it comes.  Keys are
    ("γ", mu, tensor key) and ("eq", lam, tensor key).  The right-hand
    side of equation lam is the obstruction value of e_lam.
    """
    B = N.algebra
    field = B.field
    unknowns, equations, later = _gamma_keys(N)
    d_j = {}  # J key -> terms of d(j), within this call

    def image(key):
        _, mu, tkey = key
        nu, jkey = tkey[0], tkey[1:]
        k_nu = N.index[nu]
        for i, entry in N.columns[k_nu]:
            head = (N.labels[i],)
            for k, s in diagonal_key_left(B, entry, jkey):
                yield ("eq", mu, head + k), s
        dj = d_j.get(jkey)
        if dj is None:
            dj = d_j[jkey] = list(diagonal_key_diff(B, jkey))
        odd = N.degrees[k_nu] % 2
        for k, s in dj:
            yield ("eq", mu, (nu,) + k), -s if odd else s
        for lam, entry in later[mu]:
            for k, s in diagonal_key_right(B, jkey, entry):
                yield ("eq", lam, (nu,) + k), -s

    def read_witness(solution):
        terms = {lab: [] for lab in N.labels}
        for (_, lab, key), s in zip(unknowns, solution):
            terms[lab].append((key, s))
        return {lab: TensorJElement.from_terms(N, t) for lab, t in terms.items()}

    def head(rank):
        return {"kind": "gamma-system", "unknowns": matrix.shape[1],
                "equations": matrix.shape[0], "rank": rank}

    matrix = linalg.block_matrix(unknowns, equations, image, field)
    rhs = linalg.coordinates([(("eq", lam, k), s) for lam in N.labels
                              for k, s in obstruction[lam].terms()],
                             equations, field)
    return (matrix, rhs, read_witness, head,
            lambda i: _gamma_label(N, equations[i]))


def check_lift(N: SemifreeModule, method="auto") -> ObstructionReport:
    """Decide whether N lifts naively, with a verifiable witness either way."""
    obstruction = obstruction_values(N)
    if method not in ("auto", "trivial", "rank2", "global"):
        raise ValueError("unknown method %r" % method)
    if method in ("auto", "trivial") and not N.structure:
        witness = {lab: N.tensor_zero() for lab in N.labels}
        return ObstructionReport(LIFTABLE, METHOD_TRIVIAL, obstruction, witness, None)
    if method == "trivial":
        raise ValueError("trivial method needs a zero differential")
    if method == "rank2" or (method == "auto" and N.rank == 2):
        if N.rank != 2:
            raise ValueError("rank2 method needs exactly two basis elements")
        tag, system = METHOD_RANK2, _rank2_system
    else:
        tag, system = METHOD_GLOBAL, _assemble_global_system
    matrix, rhs, read_witness, head, row_label = system(N, obstruction)
    result = linalg.linear_solve(matrix, rhs)
    if result.consistent:
        return ObstructionReport(LIFTABLE, tag, obstruction,
                                 read_witness(result.solution), None)
    cert = head(result.rank)
    cert["null_functional"] = [{"row": row_label(i), "value": str(c)}
                               for i, c in enumerate(result.certificate.null_row)
                               if c]
    cert["pairing"] = str(result.certificate.pairing)
    return ObstructionReport(NOT_LIFTABLE, tag, obstruction, None, cert)


def verify_certificate(N: SemifreeModule, report: ObstructionReport) -> bool:
    """Re-check the certified inconsistency: u . A = 0 and u . rhs != 0.

    The head (kind, bidegrees, dimensions, rank, target) must equal the
    one of the builder ``check_lift`` solved, with the rank of its matrix.
    The columns of A are not read from that builder: each is built by
    element arithmetic through B^e (``_gamma_columns``,
    ``_boundary_columns``), and only the bases are shared.
    boundary-membership is checked only for a module of rank 2.  False, never an exception, for a
    functional that is not a list of {"row": label, "value": text} items,
    names a row outside the system or names a row twice, or states a value
    other than the field's own text of a scalar (so no zero denominator,
    sign, padding or unreduced fraction), for a missing pairing, and for
    any stated head field other than the system's, in value or in type."""
    cert = report.certificate
    items = cert.get("null_functional") if isinstance(cert, dict) else None
    if not isinstance(items, list) or not all(
            isinstance(item, dict) and isinstance(item.get("row"), str)
            for item in items):
        return False
    field = N.algebra.field
    if cert.get("kind") == "boundary-membership" and N.rank == 2:
        builder, system = _rank2_system, _boundary_columns
    elif cert.get("kind") == "gamma-system":
        builder, system = _assemble_global_system, _gamma_columns
    else:
        return False
    obstruction = obstruction_values(N)
    matrix, _, _, head, _ = builder(N, obstruction)
    # repr compares JSON values type-exactly: 4.0, True and [4.0, 4] are not 4
    if any(repr(cert.get(key)) != repr(value)
           for key, value in head(linalg.rank(matrix)).items()):
        return False
    rows, columns, rhs = system(N, obstruction)
    stated = {}
    for item in items:
        key = rows.get(item["row"])
        ui = _parse_scalar(field, item.get("value"))
        if key is None or key in stated or ui is None:
            return False
        stated[key] = ui
    u = {key: ui for key, ui in stated.items() if ui}
    for column in columns(u):
        if sum((u[k] * s for k, s in column if k in u), field.zero):
            return False
    pairing = sum((u[k] * s for k, s in rhs if k in u), field.zero)
    return bool(pairing) and str(pairing) == cert.get("pairing")


def _gamma_columns(N: SemifreeModule, obstruction):
    """The γ-system from elements: ({row label: equation key}, columns,
    right-hand side terms).

    ``columns(u)`` yields the column of each unknown t = e_nu (x) j of
    block mu as (equation key, scalar) terms: d(t) in equation mu and
    -(t b[mu][lam]) in each later equation lam.  Both are computed in
    N (x) B^e and brought back by sigma, so they do not use the J key maps
    the builder does.  A column all of whose equations miss the support
    of u pairs with u to zero and is skipped."""
    unknowns, equations, later = _gamma_keys(N)
    one = N.algebra.field.one

    def columns(u):
        hit = {lam for _, lam, _ in u}
        for _, mu, tkey in unknowns:
            entries = [(lam, entry) for lam, entry in later[mu] if lam in hit]
            if mu not in hit and not entries:
                continue
            t = N.iota_n(TensorJElement.from_terms(N, [(tkey, one)]))
            column = ([(("eq", mu, k), s) for k, s in N.sigma_n(t.diff()).terms()]
                      if mu in hit else [])
            for lam, entry in entries:
                column.extend((("eq", lam, k), -s)
                              for k, s in N.sigma_n(t * entry).terms())
            yield column

    return ({_gamma_label(N, key): key for key in equations}, columns,
            [(("eq", lam, k), s) for lam in N.labels for k, s in obstruction[lam].terms()])


def _boundary_columns(N: SemifreeModule, obstruction):
    """The rank-2 boundary system from elements, in the form of
    ``_gamma_columns``: the column of each J basis vector j of the source
    block is d(j), computed in B^e and brought back by sigma."""
    B = N.algebra
    _, _, n, w, target = _rank2_target(N, obstruction)

    def columns(u):
        for key in diagonal_block_keys(B, n + 1, w):
            j = DiagonalElement.from_terms(B, [(key, B.field.one)])
            yield sigma(j.to_envelope().diff()).terms()

    return ({diagonal_label(B, key): key for key in diagonal_block_keys(B, n, w)},
            columns, list(target.terms()))


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
