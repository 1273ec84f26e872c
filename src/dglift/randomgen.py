"""Seeded random generators for property checks.

Everything here drives the tests (the invariant suites among them) and
the benchmark corpus generator.  Generation is deterministic given the Random instance: random
homogeneous elements are sampled from the exact bidegree bases with small
scalars, random free extensions adjoin variables whose differentials are
sampled from the kernel of d on the appropriate block (so they are cycles
by construction), and random semifree modules build their structure
columns out of cycles of the partially built module, which is exactly the
componentwise form of d^2 = 0.
"""

from . import linalg
from .coefficients import BaseRing, PrimeField, QQ
from .envelope import (DiagonalElement, EnvelopeElement, diagonal_block_keys,
                       envelope_basis)
from .free_dga import AlgebraElement, FreeDGAlgebra, Variable
from .semifree import ModuleElement, SemifreeModule, TensorJElement


def random_scalar(rng, field, nonzero=False):
    lo = 1 if nonzero else -2
    return field.of(rng.choice([n for n in range(lo, 3) if n or not nonzero]))


def standard_rings():
    return [
        BaseRing(QQ),
        BaseRing(QQ, ("x", "y"), (1, 1), [(1, 1)]),
        BaseRing(QQ, ("x", "y"), (1, 1), [(2, 0), (1, 1)]),
        BaseRing(PrimeField(5), ("x", "y"), (1, 2), [(3, 0)]),
    ]


def _random_block_element(rng, cls, parent, keys, field, density):
    """Sample each basis key with probability ``density``, then a small scalar."""
    terms = []
    for key in keys:
        if rng.random() > density:
            continue
        terms.append((key, random_scalar(rng, field)))
    return cls.from_terms(parent, terms)


def random_algebra_element(rng, B, n, w, density=0.7):
    return _random_block_element(rng, AlgebraElement, B, B.bidegree_basis(n, w),
                                 B.field, density)


def random_envelope_element(rng, B, n, w, density=0.6):
    return _random_block_element(rng, EnvelopeElement, B, envelope_basis(B, n, w),
                                 B.field, density)


def random_diagonal_element(rng, B, n, w, density=0.6):
    return _random_block_element(rng, DiagonalElement, B, diagonal_block_keys(B, n, w),
                                 B.field, density)


def _random_kernel_element(rng, block, field):
    basis = linalg.kernel_basis(block)
    if not basis:
        return None
    total = [field.zero] * block.shape[1]
    hit = False
    for vec in basis:
        c = random_scalar(rng, field)
        if c:
            hit = True
            total = [t + c * v for t, v in zip(total, vec)]
    return total if hit else None


def random_algebra(rng, ring, max_vars=3, max_degree=3):
    """A random free extension, built one cycle-killing variable at a time."""
    names = ("X", "Y", "Z", "W")
    count = rng.randint(1, max_vars)
    vars_so_far, diff_data = [], {}
    for k in range(count):
        degree = rng.randint(1, max_degree)
        partial = FreeDGAlgebra(ring, vars_so_far, diff_data)
        choice = None
        weights = list(range(1, 5))
        rng.shuffle(weights)
        for w in weights:
            block = partial.diff_block(degree - 1, w)
            if not block.shape[1]:
                continue
            coords = _random_kernel_element(rng, block, ring.field)
            if coords is None:
                continue
            image = AlgebraElement.from_terms(
                partial, zip(partial.bidegree_basis(degree - 1, w), coords))
            if image:
                # pad for the variable being adjoined
                choice = (w, {mono + (0,): c for mono, c in image.coeffs.items()})
                break
        name = names[k]
        if choice is None:
            vars_so_far = vars_so_far + [Variable(name, degree, degree)]
        else:
            w, coeffs = choice
            vars_so_far = vars_so_far + [Variable(name, degree, w)]
            diff_data = dict(diff_data)
            diff_data[name] = coeffs
        # earlier variables' diffs need padding to the new arity
        diff_data = {nm: {m + (0,) * (len(vars_so_far) - len(m)): c
                          for m, c in data.items()}
                     for nm, data in diff_data.items()}
    return FreeDGAlgebra(ring, vars_so_far, diff_data)


def random_module(rng, B, max_rank=4, max_degree=5, max_weight=5):
    """A random validated semifree module over B.

    Column lam must be a cycle of the module built so far at bidegree
    (|e_lam| - 1, w_lam); sampling from that kernel guarantees d^2 = 0.
    """
    rank = rng.randint(1, max_rank)
    labels, degrees, weights, structure = [], [], [], {}
    for k in range(rank):
        label = "e%d" % (k + 1)
        if not labels:
            labels.append(label)
            degrees.append(rng.randint(0, 2))
            weights.append(rng.randint(0, 2))
            continue
        partial = SemifreeModule(B, labels, degrees, weights, structure)
        degree = rng.randint(min(degrees), max_degree)
        column = None
        weight_choices = list(range(min(weights), max_weight + 1))
        rng.shuffle(weight_choices)
        for w in weight_choices:
            basis = partial.basis_of_bidegree(degree - 1, w)
            if not basis:
                continue
            block = partial.diff_block(degree - 1, w)
            coords = _random_kernel_element(rng, block, B.field)
            if coords is None:
                continue
            entries = ModuleElement.from_terms(partial, zip(basis, coords)).coeffs
            if entries:
                column = (w, entries)
                break
        labels.append(label)
        if column is None:
            degrees.append(degree)
            weights.append(rng.randint(0, max_weight))
        else:
            w, entries = column
            degrees.append(degree)
            weights.append(w)
            for lab, el in entries.items():
                structure[(lab, label)] = el
    return SemifreeModule(B, labels, degrees, weights, structure)


def random_module_element(rng, N, n, w, density=0.7):
    return _random_block_element(rng, ModuleElement, N, N.basis_of_bidegree(n, w),
                                 N.algebra.field, density)


def random_gamma(rng, N, density=0.6):
    """A random connection family: one block element per basis label."""
    gamma = {}
    for i, lab in enumerate(N.labels):
        keys = N.tensor_keys(N.degrees[i], N.weights[i])
        coords = [random_scalar(rng, N.algebra.field)
                  if rng.random() <= density else N.algebra.field.zero
                  for _ in keys]
        gamma[lab] = TensorJElement.from_terms(N, zip(keys, coords))
    return gamma


def random_partial_solution(rng, N):
    """Solve the lifting equations label by label with random choices.

    Returns (gamma, blocked): gamma solves d(gamma_lam) = xi_lam for every
    label before `blocked`, and for all labels when blocked is None.  The
    choice at each step is randomised inside the full solution space, so
    repeated runs explore genuinely different partial solutions.  A blocked
    greedy run does not prove anything (an earlier choice may be at fault);
    an unblocked one is a lifting witness.
    """
    from .obstruction import criterion_rhs
    gamma = {}
    for i, lab in enumerate(N.labels):
        xi = criterion_rhs(N, gamma, lab)
        src_keys = N.tensor_keys(N.degrees[i], N.weights[i])
        block = N.tensor_diff_block(N.degrees[i], N.weights[i])
        target = N.tensor_vec(xi, N.tensor_keys(N.degrees[i] - 1, N.weights[i]))
        res = linalg.linear_solve(block, target)
        if res.solution is None:
            return gamma, lab
        coords = res.solution
        for vec in linalg.kernel_basis(block):
            c = random_scalar(rng, N.algebra.field)
            if c:
                coords = [a + c * b for a, b in zip(coords, vec)]
        gamma[lab] = TensorJElement.from_terms(N, zip(src_keys, coords))
    return gamma, None
