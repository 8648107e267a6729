"""Smallest possible tour: minimize 0.5*||theta||^2 subject to t1 + t2 = 2.

The start [0, 0] violates the equality, so the flow first restores
feasibility (the violation decays like exp(-k*tau)) while simultaneously
descending; it lands on the known optimum [1, 1] with multiplier -1.
After one accepted step the Newton endgame takes over: its samples keep
the tau at which it began.
"""

import numpy as np

import nlpflow as nf

problem = nf.builtin("ec-quadratic")
gains = nf.GainSet.uniform(problem.n, problem.s, problem.r, k_theta=1.0, k_h=1.0)
config = nf.IntegratorConfig(method="rk45", t_end=40.0, rel_tol=1e-8, abs_tol=1e-10)

trajectory = nf.solve(problem, np.array([0.0, 0.0]), gains, integrator=config)

print(f"verdict: {trajectory.verdict} after {trajectory.step_count} steps "
      f"({trajectory.endgame_steps} of them Newton endgame steps)")
print(f"{'tau':>8} {'theta_1':>10} {'theta_2':>10} {'||h||':>10} {'f':>10}")
for s in trajectory.samples[:: max(1, len(trajectory.samples) // 10)]:
    print(f"{s.tau:>8.3f} {s.theta[0]:>10.6f} {s.theta[1]:>10.6f} "
          f"{s.report.ec_violation:>10.2e} {s.objective:>10.6f}")

final = trajectory.final
print(f"\nfinal theta   : {final.theta}")
print(f"multiplier    : {final.pi_e[0]:+.6f}   (analytic value: -1)")
print(f"distance to optimum: {np.linalg.norm(final.theta - problem.known_optimum):.2e}")
