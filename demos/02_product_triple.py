"""The 3-variable benchmark with a redundant equality and priority groups.

The start is far outside the feasible region.  Sign constraints (rows 1-3)
get priority; the nonlinear rows 4-5 only join the enforcement schedule once
the first group is satisfied.  The second equality row is an exact multiple
of the first, so the stacked Jacobian is always rank deficient; the
pseudo-inverse handles it without any preprocessing and splits the
multiplier mass across both copies.
"""

import numpy as np

import nlpflow as nf

problem = nf.builtin("example1")
gains = nf.GainSet.uniform(3, 2, 5, k_theta=0.1, k_h=0.1, k_g=0.1)
config = nf.IntegratorConfig(method="rk45", t_end=300.0, fixed_horizon=True)

theta0 = np.array([-4.8578, 3.8180, -2.7364])
trajectory = nf.solve(problem, theta0, gains, integrator=config,
                      pts_groups=[(0, 1, 2), (3, 4)])

print(f"start            : {theta0}")
print(f"verdict          : {trajectory.verdict} "
      f"({trajectory.step_count} steps, {trajectory.rhs_eval_count} RHS evals)")

final = trajectory.final
print(f"\nfinal theta      : {final.theta}")
print(f"target           : {problem.known_optimum}")
print(f"error            : {np.linalg.norm(final.theta - problem.known_optimum):.2e}")
print(f"equality mults   : {final.pi_e}        (reference: 0.35, 0.70)")
print(f"inequality mults : {final.pi_i}   (reference: row 4 -> 0.75)")
print(f"working set      : rows {tuple(i + 1 for i in final.working)}")

unused = max(abs(s.pi_i[4]) for s in trajectory.samples)
print(f"\nrow 5 multiplier stays at zero along the whole flow: max {unused:.2e}")
