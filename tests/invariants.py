"""Randomised invariant suites, run by the tests.

Each suite draws seeded random data, checks an exact identity, and returns
the number of successful trials; any failure raises AssertionError with a
description of the counterexample.  The identities are the structural
facts the rest of the package relies on: the splitting of B^e, the
derivation laws of delta, chain/anti-chain behaviour of the obstruction
map, connection calculus, and the homotopy independence of psi.
"""

import random

from dglift.envelope import (delta, diagonal_block_keys, diagonal_diff_block,
                             op_inclusion, pi, rho, sigma)
from dglift.linalg import coordinates, linear_solve
from dglift.obstruction import (Connection, canonical_connection, check_lift,
                                criterion_rhs, obstruction_apply, obstruction_values,
                                psi_apply, verify_certificate, verify_witness)
from dglift.randomgen import (random_algebra, random_algebra_element,
                              random_envelope_element, random_gamma, random_module,
                              random_module_element, random_partial_solution,
                              standard_rings)
from dglift.semifree import TensorJElement

from conftest import shipped_algebras


def delta_b_is_a_boundary(N):
    """The rank-2 criterion read off J alone: for a basis e, e' with
    d(e') = e b, whether delta(b) is a boundary in J, by one solve of
    d_J: J_(n+1, w) -> J_(n, w), (n, w) the bidegree of b."""
    B = N.algebra
    (_, b), = N.columns[1]
    n, w = N.degrees[1] - N.degrees[0] - 1, N.weights[1] - N.weights[0]
    target = coordinates(delta(b).terms(), diagonal_block_keys(B, n, w), B.field)
    return linear_solve(diagonal_diff_block(B, n + 1, w), target).consistent


def _algebra_pool(rng, extra_random=2):
    pool = shipped_algebras()
    rings = standard_rings()
    for _ in range(extra_random):
        pool.append(random_algebra(rng, rings[rng.randrange(len(rings))]))
    return pool


def _nonzero_envelope(rng, B, max_n=6, max_w=6, tries=8):
    for _ in range(tries):
        n = rng.randint(0, max_n)
        w = rng.randint(0, max_w)
        u = random_envelope_element(rng, B, n, w)
        if u:
            return u
    return random_envelope_element(rng, B, 2, 2, density=1.0)


def suite_splitting(seed=0, trials=120):
    """pi rho = id, sigma iota = id, iota sigma + rho pi = id; chain maps."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        u = _nonzero_envelope(rng, B)
        b = random_algebra_element(rng, B, rng.randint(0, 6), rng.randint(0, 6))
        assert pi(rho(b)) == b, "pi rho != id at %s" % b
        j = sigma(u)
        assert sigma(j.to_envelope()) == j, "sigma iota != id at %s" % u
        assert j.to_envelope() + rho(pi(u)) == u, "iota sigma + rho pi != id at %s" % u
        assert pi(u.diff()) == pi(u).diff(), "pi is not a chain map at %s" % u
        assert rho(b.diff()) == rho(b).diff(), "rho is not a chain map at %s" % b
        assert sigma(u.diff()) == sigma(u).diff(), "sigma is not a chain map at %s" % u
        assert u.diff().diff() == type(u)(B, {}), "d^2 != 0 at %s" % u
        done += 1
    return done


def suite_derivation(seed=1, trials=120):
    """delta's product rule and chain identity delta d = d delta."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        b1 = random_algebra_element(rng, B, rng.randint(0, 5), rng.randint(0, 5))
        b2 = random_algebra_element(rng, B, rng.randint(0, 5), rng.randint(0, 5))
        if not b1 or not b2:
            continue
        d1, _ = b1.bidegree()
        d2, _ = b2.bidegree()
        sign = -1 if (d1 * d2) % 2 else 1
        lhs = delta(b1 * b2)
        rhs = delta(b1) * rho(b2) + (delta(b2) * op_inclusion(b1)) * sign
        assert lhs == rhs, "derivation rule fails at %s, %s" % (b1, b2)
        assert delta(b1.diff()) == delta(b1).diff(), "delta chain identity fails at %s" % b1
        done += 1
    return done


def suite_obstruction(seed=2, trials=100):
    """Both descriptions of the obstruction agree; psi of the canonical
    connection is its negative; it anticommutes with d; the partial sums
    of the lifting criterion are cycles along random partial solutions."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        assert obstruction_values(N, "formula") == obstruction_values(N, "splitting"), \
            "obstruction modes disagree on %r" % N
        can = canonical_connection(N)
        values = obstruction_values(N)
        for lab in N.labels:
            assert psi_apply(can, N.gen(lab)) == -values[lab], \
                "psi of the canonical connection is not -obstruction on %r" % N
        n, w = rng.randint(0, 6), rng.randint(0, 6)
        v = random_module_element(rng, N, n, w)
        left = obstruction_apply(N, v).diff() + obstruction_apply(N, v.diff())
        assert not left, "obstruction map does not anticommute with d on %r" % N
        assert obstruction_apply(N, v) == obstruction_apply(N, v, "splitting"), \
            "obstruction modes disagree on an element of %r" % N
        # cycle property: with the equations solved below lam, the next
        # right-hand side is a cycle (also at the first blocked label)
        gamma, blocked = random_partial_solution(rng, N)
        for lab in N.labels:
            assert not criterion_rhs(N, gamma, lab).diff(), \
                "criterion partial sum is not a cycle on %r" % N
            if lab == blocked:
                break
        if blocked is None:
            assert verify_witness(N, gamma), \
                "complete partial solution is not a witness on %r" % N
        done += 1
    return done


def suite_connections(seed=3, trials=100):
    """Connection law, B-linearity of differences, gamma correspondence."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        gamma = random_gamma(rng, N)
        D = Connection(N, gamma)
        for lab in N.labels:
            assert D(N.gen(lab)) == gamma[lab], "gamma correspondence broken on %r" % N
            assert criterion_rhs(N, gamma, lab) == D(N.gen(lab).diff()), \
                "the lifting identity is not the connection on d(e_lam) on %r" % N
        v = random_module_element(rng, N, rng.randint(0, 6), rng.randint(0, 6))
        b = random_algebra_element(rng, B, rng.randint(0, 4), rng.randint(0, 4))
        assert D(v * b) == D(v) * b + _tensor_delta_of(N, v, b), \
            "connection law fails on %r" % N
        D2 = Connection(N, random_gamma(rng, N))
        diff_map = D - D2
        lhs = (D(v * b) - D2(v * b))
        rhs = _apply_linear(N, diff_map, v) * b
        assert lhs == rhs, "difference of connections is not linear on %r" % N
        rebuilt = Connection(N, {lab: D(N.gen(lab)) for lab in N.labels})
        assert rebuilt(v) == D(v), \
            "basis values do not determine the connection on %r" % N
        done += 1
    return done


def _tensor_delta_of(N, v, b):
    """n (x) delta(b): the coefficients of v act on delta(b) from the left."""
    db = delta(b)
    return TensorJElement(N, {lab: coeff * db for lab, coeff in v.coeffs.items()})


def _apply_linear(N, values, v):
    total = N.tensor_zero()
    for lab, coeff in v.coeffs.items():
        total = total + values[lab] * coeff
    return total


def suite_homotopy(seed=4, trials=60):
    """psi_D1 - psi_D2 is the boundary of h = D2 - D1 in the shifted Hom."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        D1 = Connection(N, random_gamma(rng, N))
        D2 = Connection(N, random_gamma(rng, N))
        h = D2 - D1
        v = random_module_element(rng, N, rng.randint(0, 6), rng.randint(0, 6))
        lhs = psi_apply(D1, v) - psi_apply(D2, v)
        rhs = -(_apply_linear(N, h, v).diff()) + _apply_linear(N, h, v.diff())
        assert lhs == rhs, "homotopy identity fails on %r" % N
        done += 1
    return done


def suite_decision(seed=5, trials=40):
    """Each witness and certificate verifies; trivial modules lift; on
    rank 2 the decision is the boundary test."""
    rng = random.Random(seed)
    pool = _algebra_pool(rng)
    done = 0
    while done < trials:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B, max_rank=3)
        report = check_lift(N)
        if report.liftable:
            assert verify_witness(N, report.witness), "witness fails on %r" % N
        else:
            assert verify_certificate(N, report), "certificate fails on %r" % N
        if N.rank == 2 and any(N.columns):
            assert report.liftable == delta_b_is_a_boundary(N), \
                "the decision and the boundary test disagree on %r" % N
        if not any(N.columns):
            assert report.liftable and report.method == "trivial"
        done += 1
    return done

