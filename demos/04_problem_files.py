"""Define a problem in the text format and solve it.

Derivatives come from forward-mode dual numbers, so anything the grammar can
express gets exact gradients, and exact second-order terms for the stiff
stepper, for free.  The parsed form also serializes back
to text, which round-trips.
"""

import numpy as np

import nlpflow as nf

TEXT = """\
# shifted quadratic with a bound and a coupling equality
var 3
min (x1 - 2)^2 + (x2 + 1)^2 + x3^2 + sin(x3)
ineq x1 - 1.5          # keep x1 at or below 1.5
eq x1 - x2 - 2         # ties x2 to x1
"""

problem = nf.parse_problem(TEXT, name="demo")
print(f"parsed: n={problem.n}, r={problem.r}, s={problem.s}")

gains = nf.GainSet.uniform(problem.n, problem.s, problem.r,
                           k_theta=1.0, k_h=1.0, k_g=1.0)
config = nf.IntegratorConfig(t_end=50.0, rel_tol=1e-8, abs_tol=1e-10)
trajectory = nf.solve(problem, np.zeros(3), gains, integrator=config)

final = trajectory.final
print(f"verdict: {trajectory.verdict}")
print(f"theta  : {final.theta}")
print(f"ineq   : value {problem.inequalities(final.theta)[0]:+.2e}, "
      f"multiplier {final.pi_i[0]:+.4f}")
print(f"eq     : multiplier {final.pi_e[0]:+.4f}")

print("\nserialized form:")
print(nf.serialize_problem(problem))
