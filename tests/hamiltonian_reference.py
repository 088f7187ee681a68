"""Brute-force reference for the minimised Hamiltonian.

The tests compare ``exitcert.systems.hamiltonian`` (block form) against
this scan, which evaluates one point and one control at a time through
the checked point forms.
"""

import numpy as np

from exitcert.systems import eval_dynamics, eval_lagrangian


def brute_hamiltonian(system, X, p0, P):
    """min over the controls of p0*l + <p, f>, one point and one control at a time."""
    return np.array(
        [
            min(
                p0 * eval_lagrangian(system, x, k) + float(np.dot(p, eval_dynamics(system, x, k)))
                for k in range(system.n_controls)
            )
            for x, p in zip(X, P)
        ]
    )
