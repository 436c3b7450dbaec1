"""Golden errors of every bundled case at full length.

Each case runs through `run_case`, the path `stfr run <case>` takes, and its
`error_final` and `error_slab` must match the pinned values to GOLDEN_RTOL.
A change of slab solver that reaches the same residual drop moves them by
about 1e-8 relative; any change to the discretisation moves them by far more.

`wave2d_stationary_p2p2` is under-resolved on purpose: 8 x 8 p2 elements on
[-2, 2] give about two elements per wavelength of sin(2 pi x), and the
paper's setup reports the same L2 error, 0.244.  Its mesh stays as the paper
has it.
"""

import math
from importlib import resources

import pytest

from stfr.cli import load_case, run_case

GOLDEN_RTOL = 1e-6

# case -> (error_final, error_slab); nan where the solver has no slab
GOLDEN = {
    "compare_sine_deform_p2": (2.6685430558664684e-03, 2.468490389215524e-03),
    "euler_vortex_p3": (1.0349152452517507e-03, 1.0227919767411323e-03),
    "mol_sine_deform_p2": (2.796222591199319e-03, math.nan),
    "stfv_moving_1d": (3.714754596646621e-02, math.nan),
    "wave1d_stationary_p2p2": (2.0895434933921944e-04, 2.105782488313431e-04),
    "wave2d_circle_p2": (6.725182260547649e-03, 7.132796448663533e-03),
    "wave2d_rigid_oscillation": (7.996407790686538e-05, 8.395993002265421e-05),
    "wave2d_sine_deform": (4.632430186271545e-05, 3.9617142939736426e-05),
    "wave2d_stationary_p2p2": (2.4414647226704292e-01, 2.4573312521672735e-01),
}

# a constant state is preserved to round-off: bound, not pin
FREESTREAM_BOUND = 1e-13


def test_every_bundled_case_is_pinned():
    bundled = {p.name[:-len(".json")]
               for p in resources.files("stfr").joinpath("cases").iterdir()
               if p.name.endswith(".json")}
    assert bundled == set(GOLDEN) | {"freestream_sine_deform"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_errors(case):
    row = run_case(load_case(case))
    final, slab = GOLDEN[case]
    assert row.error_final == pytest.approx(final, rel=GOLDEN_RTOL, abs=0)
    if math.isnan(slab):
        assert math.isnan(row.error_slab)
    else:
        assert row.error_slab == pytest.approx(slab, rel=GOLDEN_RTOL, abs=0)


def test_freestream_preserved_to_round_off():
    row = run_case(load_case("freestream_sine_deform"))
    assert row.error_final <= FREESTREAM_BOUND
    assert row.error_slab <= FREESTREAM_BOUND
