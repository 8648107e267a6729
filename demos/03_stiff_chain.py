"""The 100-variable chained-sine benchmark: a genuinely stiff flow.

The coefficient 100 on the sine terms creates fast and slow time scales, so
the explicit stepper would crawl; the Rosenbrock stepper takes a few dozen
steps.  Two starts are shown:

* the standard start (theta_1 = 2, the rest near 1), which converges
  directly, with the violated upper bound on theta_1 never acquiring
  multiplier mass;
* a descending ramp from 2 to -1, where the median of theta visibly pauses
  near 0.5 before jumping to the all-ones optimum.

On the ramp start several band constraints conflict transiently, so the
working set changes often and many steps are rejected before the flow
untangles itself.  Each Rosenbrock step uses the exact flow linearization on
the working set settled at its base point, and solves its stages as banded
saddle-point systems without forming the 100 x 100 Jacobian.
"""

import time

import numpy as np

import nlpflow as nf

problem = nf.builtin("example2", size=100)
gains = nf.GainSet.uniform(100, 99, 200, k_theta=0.1, k_h=1.0, k_g=1.0)
config = nf.IntegratorConfig(method="stiff", t_end=100.0, fixed_horizon=True)
ones = np.ones(100)


def run(label, theta0):
    start = time.perf_counter()
    traj = nf.solve(problem, theta0, gains, integrator=config)
    elapsed = time.perf_counter() - start
    final = traj.final
    print(f"--- {label} ---")
    print(f"verdict {traj.verdict}, {traj.step_count} accepted steps, "
          f"{traj.rhs_eval_count} RHS evaluations, {elapsed:.1f}s")
    print(f"final error ||theta - 1||: {np.linalg.norm(final.theta - ones):.2e}")
    bound = max(abs(s.pi_i[0]) for s in traj.samples)
    print(f"multiplier of the violated bound theta_1 <= 1.5: max {bound:.2e}")
    return traj


rng = np.random.default_rng(0)
standard = rng.uniform(0.7, 1.2, size=100)
standard[0] = 2.0
run("standard start", standard)

print()
ramp = 2.0 - 3.0 * np.arange(100) / 99.0
traj = run("descending ramp", ramp)

print(f"\n{'tau':>8} {'median(theta)':>14} {'||h||':>10}")
for s in traj.samples[:: max(1, len(traj.samples) // 15)]:
    print(f"{s.tau:>8.3f} {np.median(s.theta):>14.4f} "
          f"{s.report.ec_violation:>10.2e}")
print(f"{traj.final.tau:>8.3f} {np.median(traj.final.theta):>14.4f} "
      f"{traj.final.report.ec_violation:>10.2e}")
