"""Where does the weighted error functional Phi peak?

For each sweep the error e = u_l^k - u is transformed to
eps = e exp(p x), differentiated along the axis (nu), and weighted:
Phi = nu^2 exp(-gamma x) varphi(t).  With a decaying time weight
varphi(t) = exp(-theta t) the maximum of Phi sits on the parabolic
boundary of every strip (interface planes or the t=0 slice); with
varphi = 1 small interior maxima can appear.  This script tabulates the
worst interior/boundary ratio over the first 20 sweeps for several theta.

A strip's ratio counts only while its boundary maximum is above FLOOR
times its sweep-1 value.  Phi grows as the square of the error, so below
that the error has fallen a millionfold, and the ratio reads rounding:
without the floor, the worst ratios of heat1d I=2 (theta=6) and tvar1d
I=2 (theta=10) were set at sweeps 18-19, with boundary maxima near 1e-21
against 5e-5 at sweep 1, and the table moved in its fourth decimal when
the strip solves changed by rounding only (LDL^T or LU factors of the
same steps).  With the floor it does not.
"""

import warnings

from oswr import (DecompositionSpec, InitialGuess, RobinParameter, StackOperator,
                  WeightSpec, build_grid, initial_traces, problem_preset, snap,
                  solve_global)
from oswr.diagnostics import StackDiagnostics
from oswr.subdomain import axis_range

warnings.filterwarnings("ignore", message=".*snapped.*")

FLOOR = 1e-12


def worst_ratio(preset, count, theta, sweeps=20):
    problem = problem_preset(preset)
    grid = build_grid(problem.domain, 101, 50)
    oracle = solve_global(problem, grid)
    layout = snap(DecompositionSpec.uniform(problem.domain, count, 0.2), grid)
    p = RobinParameter(1.0)
    operator = StackOperator(problem, grid, [axis_range(e, p) for e in layout.entries])
    diagnose = StackDiagnostics(operator, oracle, p, WeightSpec(gamma=5.0, theta=theta))
    robin = initial_traces(InitialGuess(), layout, grid, problem)
    worst, floors = 0.0, None
    for u, _ in operator.sweeps(robin, sweeps):
        d = diagnose(u)
        if floors is None:
            floors = FLOOR * d.boundary_max
        for interior, boundary, floor in zip(d.interior_max, d.boundary_max, floors):
            if boundary > floor:
                worst = max(worst, interior / boundary)
    return worst


if __name__ == "__main__":
    print("worst interior/boundary Phi ratio over 20 sweeps "
          "(< 1 means the boundary-maximum property holds)")
    print(f"(a strip counts while its Phi boundary maximum is above {FLOOR:g} "
          "of its sweep-1 value)\n")
    print(f"{'case':>12} {'theta=0':>9} {'theta=6':>9} {'theta=10':>9}")
    for preset, count in (("heat1d", 2), ("heat1d", 3),
                          ("tvar1d", 2), ("tvar1d", 3)):
        ratios = [worst_ratio(preset, count, th) for th in (0.0, 6.0, 10.0)]
        print(f"{preset + ' I=' + str(count):>12} "
              + " ".join(f"{r:9.4f}" for r in ratios))
