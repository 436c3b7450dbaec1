"""Three-stage strong-stability-preserving Runge-Kutta stepping.

Used by the physical time marching of the method-of-lines solver.
"""

# stage time offsets in units of dt, in the order the stages run
STAGE_OFFSETS = (0.0, 1.0, 0.5)


def ssp_rk3_step(u, rhs, dt, t=0.0):
    """One SSP-RK3 cycle: u_{n+1} from u_n with du/dt = rhs(u, t).

    Stage k calls rhs at t + STAGE_OFFSETS[k] * dt.  With rhs frozen to a
    constant r this reduces exactly to u + dt * r.
    """
    t1, t2, t3 = (t + c * dt for c in STAGE_OFFSETS)
    r1 = rhs(u, t1)
    u1 = u + dt * r1
    r2 = rhs(u1, t2)
    u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * r2
    r3 = rhs(u2, t3)
    return u / 3.0 + 2.0 / 3.0 * u2 + 2.0 / 3.0 * dt * r3
