"""The leg integrator's field and RK4 path on numpy arrays.

``synthesis._make_field`` and ``synthesis._rk4_path`` work on tuples of
floats.  These are the same two functions written on 1-d arrays, the
form the integrator had before; ``test_synthesis`` checks that both give
the same path bit for bit.  The package never calls this module.
"""

import numpy as np

from exitcert.synthesis import ModulusError, _cutoff
from exitcert.systems import eval_dynamics, eval_lagrangian


def array_field(system, mrf, modulus, a_index, mu_hat, sigma):
    p0 = mrf.p0_bar

    def F(z: np.ndarray) -> np.ndarray:
        f = np.asarray(eval_dynamics(system, z, a_index))
        l = eval_lagrangian(system, z, a_index)
        u = mrf.u(z)
        g = p0 * l + float(modulus(u))
        if g <= 0:
            raise ModulusError(z, g)
        return _cutoff(u, mu_hat, sigma) * f / g

    return F


def array_rk4_path(F, z0: np.ndarray, length: float, n: int) -> np.ndarray:
    h = length / n
    out = np.empty((n + 1, len(z0)))
    z = np.asarray(z0, dtype=float)
    out[0] = z
    for i in range(n):
        k1 = F(z)
        k2 = F(z + 0.5 * h * k1)
        k3 = F(z + 0.5 * h * k2)
        k4 = F(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return out
