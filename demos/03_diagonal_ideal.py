"""The enveloping algebra, its diagonal ideal, and the universal derivation.

B^e = B^o (x) B multiplies through a twist sign; the multiplication map
pi(b1^o (x) b2) = b1*b2 splits off B, and its kernel J (the diagonal ideal)
is spanned by sigma(m1^o (x) m2) = m1^o (x) m2 - 1^o (x) m1*m2 over pairs
with m1 != 1.  The universal derivation delta(b) = b^o (x) 1 - 1^o (x) b
takes values in J and commutes with the differentials.
"""

from dglift import delta, parse_problem, pi, rho, sigma
from dglift.envelope import (diagonal_basis, diagonal_block_keys,
                             diagonal_diff_block, diagonal_homology_dim,
                             diagonal_label, op_inclusion)

problem = parse_problem("""
ring R = QQ[x:1,y:1]/(x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
""")
B = problem.algebra
X, Y = B.gen("X"), B.gen("Y")
y = B.ring.gen("y")

u = op_inclusion(X) * rho(Y)       # X^o (x) Y
print("u          =", u)
print("pi(u)      =", pi(u))
print("sigma(u)   =", sigma(u))
print("d(u)       =", u.diff())
print("pi(rho(b)) = b:", pi(rho(X * Y * y)) == X * Y * y)

d = delta(X * Y * y)
print("\ndelta(X*Y*y)        =", d)
print("delta is a chain map:", delta((X * Y * y).diff()) == d.diff())
print("delta kills scalars :", not delta(B.from_ring(y)))

print("\nbasis of J at bidegree (4,4):")
for el in diagonal_basis(B, 4, 4):
    print("  ", el)

block = diagonal_diff_block(B, 4, 4)
src_labels, dst_labels = ([diagonal_label(B, k) for k in diagonal_block_keys(B, n, 4)]
                          for n in (4, 3))
print("\nthe differential (4,4) -> (3,4) as a %dx%d block:" % block.shape)
for j, src in enumerate(src_labels):
    column = [row[j] for row in block.rows]
    image = [(dst_labels[i], c) for i, c in enumerate(column) if c]
    print("  d[%s] = %s" % (src, " + ".join("%s·%s" % (c, lab) for lab, c in image) or "0"))

print("\ndim H_(n,4)(J):", {n: diagonal_homology_dim(B, n, 4) for n in range(1, 5)})
