"""Every constructor and entry point refuses its invalid inputs with its own
message, before it computes anything."""

import numpy as np
import pytest

from heatctl import (
    AdjointTrajectory,
    ControlSignal,
    DimensionMismatchError,
    ReachOptions,
    SpatialGrid,
    StateTrajectory,
    TargetBall,
    ValueCurve,
    ValuePoint,
    bruteforce_minimal_norm_bracket,
    control_scaling_gap,
    dirichlet_eigs,
    gradient_fd_check,
    make_nonlinearity,
    solve_adjoint,
    solve_forward,
)

G = SpatialGrid.build(n=7)
OTHER = SpatialGrid.build(n=5)
F = make_nonlinearity("zero")
Y0 = 2.0 * dirichlet_eigs(G, 1).eigenvectors[0]
ONES = np.ones(3)


def controls(nt):
    return ControlSignal.zeros(nt, 0.01, G)


def point(parameter):
    return ValuePoint(parameter=parameter, value=0.0, bracket_lo=0.0, bracket_hi=0.0,
                      iterations=0, control=controls(2))


def bracket(y0=Y0, levels=(1.0,)):
    return bruteforce_minimal_norm_bracket(y0, 0.1, 1, 2, [0.0, 1.0], levels, F, G,
                                           TargetBall(0.5), n_steps=8)


CASES = {
    "grid-no-node": (lambda: SpatialGrid(n=0, h=1.0, ell=1.0, omega_mask=np.ones(0)),
                     ValueError, "at least one interior node, got n=0"),
    "grid-ell-zero": (lambda: SpatialGrid(n=3, h=0.0, ell=0.0, omega_mask=ONES),
                      ValueError, "domain length must be positive, got 0.0"),
    "grid-ell-negative": (lambda: SpatialGrid(n=3, h=-0.25, ell=-1.0, omega_mask=ONES),
                          ValueError, "domain length must be positive, got -1.0"),
    "grid-spacing": (lambda: SpatialGrid(n=3, h=0.3, ell=1.0, omega_mask=ONES),
                     ValueError, r"h\*\(n\+1\) = ell"),
    "grid-mask-shape": (lambda: SpatialGrid(n=3, h=0.25, ell=1.0, omega_mask=np.ones(4)),
                        DimensionMismatchError, r"omega_mask has shape \(4,\), expected \(3,\)"),
    "grid-mask-values": (lambda: SpatialGrid(n=3, h=0.25, ell=1.0,
                                             omega_mask=np.array([0.0, 0.5, 1.0])),
                         ValueError, "omega_mask entries must be 0 or 1"),
    "nonlinearity-L": (lambda: make_nonlinearity("scaled_tanh", -1.0),
                       ValueError, "derivative bound must be nonnegative, got -1.0"),
    "control-dt-zero": (lambda: ControlSignal(dt=0.0, nt=2, values=np.zeros((2, G.n)), grid=G),
                        ValueError, "need dt > 0 and nt >= 1, got dt=0.0, nt=2"),
    "control-dt-negative": (lambda: ControlSignal(dt=-0.1, nt=2, values=np.zeros((2, G.n)),
                                                  grid=G),
                            ValueError, "need dt > 0 and nt >= 1, got dt=-0.1"),
    "control-nt": (lambda: ControlSignal(dt=0.1, nt=0, values=np.zeros((0, G.n)), grid=G),
                   ValueError, "need dt > 0 and nt >= 1, got dt=0.1, nt=0"),
    "trajectory-rows": (lambda: StateTrajectory(dt=0.1, nt=2, states=np.zeros((2, 3)),
                                                norms=np.zeros(3), stage_states=np.zeros((2, 3))),
                        DimensionMismatchError, r"nt\+1 states"),
    "trajectory-norms": (lambda: StateTrajectory(dt=0.1, nt=2, states=np.zeros((3, 3)),
                                                 norms=np.zeros(2), stage_states=np.zeros((2, 3))),
                         DimensionMismatchError, r"nt\+1 norms"),
    "adjoint-rows": (lambda: AdjointTrajectory(dt=0.1, nt=2, costates=np.zeros((2, 3))),
                     DimensionMismatchError, r"nt\+1 costates"),
    "eigs-k": (lambda: dirichlet_eigs(G, 0), ValueError, "need k >= 1, got 0"),
    "forward-other-grid": (lambda: solve_forward(Y0, ControlSignal.zeros(2, 0.01, OTHER), F, G),
                           DimensionMismatchError, "control was built on a different grid"),
    "adjoint-datum": (lambda: solve_adjoint(controls(2), np.zeros(G.n - 1), F, G),
                      DimensionMismatchError, r"terminal datum has shape \(6,\), expected \(7,\)"),
    "scaling-theta-above": (lambda: control_scaling_gap(Y0, controls(2), 1.5, F, G),
                            ValueError, r"must lie in \[0, 1\], got 1.5"),
    "scaling-theta-below": (lambda: control_scaling_gap(Y0, controls(2), -0.1, F, G),
                            ValueError, r"must lie in \[0, 1\], got -0.1"),
    "options-eps-stag-zero": (lambda: ReachOptions(eps_stag=0.0),
                              ValueError, "tolerances must be positive"),
    "options-eps-stag-negative": (lambda: ReachOptions(eps_stag=-1e-7),
                                  ValueError, "tolerances must be positive"),
    "fd-check-steps": (lambda: gradient_fd_check(Y0, 0.03, controls(3), controls(4), F, G),
                       DimensionMismatchError, "different step counts"),
    "bracket-y0-shape": (lambda: bracket(y0=Y0[:-1]),
                         DimensionMismatchError, r"initial state has shape \(6,\)"),
    "bracket-no-levels": (lambda: bracket(levels=()),
                          ValueError, "need at least one level to bracket"),
    "curve-equal": (lambda: ValueCurve(points=(point(1.0), point(1.0)), monotone=True),
                    ValueError, "curve parameters must be strictly increasing"),
    "curve-decreasing": (lambda: ValueCurve(points=(point(2.0), point(1.0)), monotone=True),
                         ValueError, "curve parameters must be strictly increasing"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_an_invalid_input_is_refused_with_its_own_message(case, solve_calls):
    build, error, message = CASES[case]
    with pytest.raises(error, match=message):
        build()
    assert solve_calls.forward == [] and solve_calls.adjoint == []
