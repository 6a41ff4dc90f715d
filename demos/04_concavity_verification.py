"""Concavity verification: closed-form identity, randomized scans, and the
quotient inequality on diagonal curvature data.

The scans combine a midpoint test (2f(x) >= f(x+eps*xi) + f(x-eps*xi),
exact for concave f at any admissible probe) with the largest eigenvalue of
the exact Hessian (from second-order Taylor jets) at interior points.
"""

from fractions import Fraction as F

from symcurv import concave, hypcheck
from symcurv.combop import OperatorSpec, lower_operator
from symcurv.cones import ConeSpec

print("closed-form midpoint identity for the first sum-type quotient q_1:")
lhs, rhs = concave.q1_closed_form_check((1, 1), (1, -1), 1)
print(f"  direct = {lhs}, closed form = {rhs}  (both 2/3)")

print("\nscan: q_2 = (sigma_3 + alpha sigma_2)/(sigma_2 + alpha sigma_1) on Gamma_2, n = 4:")
rep = concave.concavity_scan(concave.quotient_qk_field(4, 2, 0.5), 5000, seed=1)
print(f"  {rep}")
print(f"  worst Hessian eigenvalue (normalized): {rep.details['hessian_worst']:.3e}")

print("\nscan: (Q_S^2)^(1/2) on the admissible cone (includes sigma_2 < 0 points):")
rep = concave.concavity_scan(concave.sum_root_field(3, 2, 2.0), 5000, seed=2)
print(f"  {rep}")

print("\nnegative control: sigma_2 itself on Gamma_2 at n = 2 is a saddle:")
neg = concave.ScalarField("sigma2", 2, lambda x: x[0] * x[1],
                          domain=ConeSpec("garding", 2, 2))
rep = concave.concavity_scan(neg, 1000, seed=3)
print(f"  {rep}")
print(f"  witness point: {tuple(round(v, 4) for v in rep.witness)}")

print("\nderived-quotient concavity (Q / Q^N_l)^(1/(k-l)) on Gamma_k:")
op = OperatorSpec.sum_type(4, 3, F(2))
c_rep = hypcheck.check_condition_c(op)
for l in (1, 2):
    s_l = lower_operator(op, c_rep.witness, l, c_rep.N)
    fld = concave.lower_quotient_field(op, s_l)
    rep = concave.concavity_scan(fld, 3000, seed=4)
    print(f"  l={l}: {rep}")

print("\nquotient inequality on diagonal curvature tensors (10^4 instances):")
op2 = OperatorSpec.sum_type(3, 2, F(1))
c2 = hypcheck.check_condition_c(op2)
s_1 = lower_operator(op2, c2.witness, 1, c2.N)
rep = concave.guan_scan(op2, s_1, 10000, seed=5)
print(f"  {rep}")
print(f"  second inequality observed >= {rep.details['second_inequality_worst']:.3e} "
      "(reported, not asserted)")
