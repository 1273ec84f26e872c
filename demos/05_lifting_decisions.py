"""Deciding naive liftability: witness on success, certificate on failure.

Two rank-2 modules over the same free extension, differing only in which
ring generator multiplies the structure coefficient:

  d(ep) = e*X*Y*y   lifts: X*Y*y = d(Y^(2)) makes delta(X*Y*y) a boundary;
  d(up) = u*X*Y*x   does not: delta(X*Y*x) is a nonzero class in H_3(J).

Both answers are re-checkable: the witness satisfies its defining identity
exactly, the certificate is a null functional of the gamma-system that
pairs nonzero against its right-hand side, the obstruction.
"""

from dglift import (check_lift, delta, linear_solve, parse_problem,
                    verify_certificate, verify_witness)
from dglift.envelope import diagonal_block_keys, diagonal_diff_block
from dglift.linalg import coordinates

liftable = parse_problem("""
ring R = QQ[x:1,y:1]/(x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
module N over B = <e:0, ep:4 | de = 0, dep = e*X*Y*y>
""")
N = liftable.modules["N"]
report = check_lift(N)
print("N:", report.decision, "via", report.method)
for lab, value in report.witness.items():
    print("  gamma_%s = %s" % (lab, value))
print("  witness verifies:", verify_witness(N, report.witness))

# the coefficient ring needs x^2 = 0 for d(up) = u*X*Y*x to square to zero
nonliftable = parse_problem("""
ring R = QQ[x:1,y:1]/(x^2, x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
module M over B = <u:0, up:4 | du = 0, dup = u*X*Y*x>
""")
M = nonliftable.modules["M"]
report = check_lift(M)
print("\nM:", report.decision, "via", report.method)
for key, value in report.certificate.items():
    print("  %s: %s" % (key, value))
print("  certificate verifies:", verify_certificate(M, report))

# the rank-2 corollary read off J alone: delta(X*Y*x), in J of bidegree (3, 4),
# is not in the image of d_J from (4, 4); the gamma-system says the same
B = M.algebra
target = coordinates(delta(B.gen("X") * B.gen("Y") * B.ring.gen("x")).terms(),
                     diagonal_block_keys(B, 3, 4), B.field)
boundary = linear_solve(diagonal_diff_block(B, 4, 4), target).consistent
print("\ndelta(b) is a boundary in J:", boundary,
      "- agrees:", boundary == report.liftable)

# a module with zero differential lifts for free
trivial = parse_problem("""
ring R = QQ[x:1,y:1]/(x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
module F over B = <a:0, b:3, c:5 | da = 0, db = 0, dc = 0>
""").modules["F"]
print("zero differential:", check_lift(trivial).decision,
      "via", check_lift(trivial).method)
