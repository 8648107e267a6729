"""Compare the explicit and the stiff stepper on raw ODEs.

On the mild decay y' = -y both agree to high accuracy.  On y' = -1000*y the
explicit pair is stability-limited to steps of about 2.8/1000: its PI step
control holds the step near that boundary, 318 accepted / 1 rejected steps
to tau = 1.  The L-stable Rosenbrock pair strides through in 28 steps.
"""

import math

import numpy as np

import nlpflow as nf


def compare(label, rhs, y0, t_end, exact):
    print(f"--- {label} ---")
    for method in ("rk45", "stiff"):
        config = nf.IntegratorConfig(method=method, t_end=t_end)
        res = nf.integrate_ode(rhs, np.array(y0), config)
        err = abs(res.y[0] - exact)
        print(f"{method:>6}: {res.accepted:4d} accepted / {res.rejected:3d} rejected "
              f"steps, final error {err:.2e}")
    print()


compare("y' = -y to tau = 1", lambda y: -y, [1.0], 1.0, math.exp(-1.0))
compare("y' = -1000 y to tau = 1", lambda y: -1000.0 * y, [1.0], 1.0,
        math.exp(-1000.0))
