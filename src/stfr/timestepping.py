"""Three-stage strong-stability-preserving Runge-Kutta stepping.

Used by the physical time marching of the method-of-lines solver.  Stage
time offsets are (0, 1, 1/2) in units of dt.
"""

def ssp_rk3_step(u, rhs, dt, t=0.0):
    """One SSP-RK3 cycle: u_{n+1} from u_n with du/dt = rhs(u, t).

    With rhs frozen to a constant r this reduces exactly to u + dt * r.
    """
    r1 = rhs(u, t)
    u1 = u + dt * r1
    r2 = rhs(u1, t + dt)
    u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * r2
    r3 = rhs(u2, t + 0.5 * dt)
    return u / 3.0 + 2.0 / 3.0 * u2 + 2.0 / 3.0 * dt * r3
