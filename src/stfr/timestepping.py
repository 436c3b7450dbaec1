"""Three-stage strong-stability-preserving Runge-Kutta stepping.

Used by the physical time marching of the method-of-lines solver.
"""

# stage time offsets in units of dt, in the order the stages run
STAGE_OFFSETS = (0.0, 1.0, 0.5)


def ssp_rk3_step(u, rhs, dt):
    """One SSP-RK3 cycle: u_{n+1} from u_n with du/dt = rhs(u, k).

    Stage k calls rhs at the time offset STAGE_OFFSETS[k] * dt, k = 0, 1, 2.
    With rhs frozen to a constant r this reduces exactly to u + dt * r.
    """
    u1 = u + dt * rhs(u, 0)
    u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * rhs(u1, 1)
    return u / 3.0 + 2.0 / 3.0 * u2 + 2.0 / 3.0 * dt * rhs(u2, 2)
