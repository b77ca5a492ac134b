"""End-to-end acceptance battery on the reference cases.

The reference cases are heat1d (a=1, b=0, c=0) and tvar1d (a=1+t/2,
b=sin t, c=1) on (0,1)x(0,1), grid nx_axis=101, nt=50, I in {2, 3},
overlap 0.2, p=1.  Each criterion prints one PASS line when it holds.
"""

import csv
import time
import warnings

import numpy as np
import pytest

from oswr import (DecompositionSpec, InitialGuess, RobinParameter, StackOperator,
                  SWRConfig, WeightSpec, build_grid, compute_E, compute_error_fields,
                  contraction_report, exchange, initial_traces, load_config,
                  phi_boundary_check, problem_preset, run, snap, solve_global,
                  sweep_once)
from oswr.cli import run_experiment
from oswr.subdomain import axis_range

CASES = [("heat1d", 2), ("heat1d", 3), ("tvar1d", 2), ("tvar1d", 3)]
NX, NT, OVERLAP, P = 101, 50, 0.2, 1.0
GAMMA = 5.0  # 5 / (beta - alpha)
THETA = 10.0  # time-weight decay rate for the Phi diagnostics


class CaseRun:
    """One zero-guess reference run with per-sweep diagnostics."""

    def __init__(self, preset, count):
        self.preset, self.count = preset, count
        self.problem = problem_preset(preset)
        self.grid = build_grid(self.problem.domain, NX, NT)
        self.oracle = solve_global(self.problem, self.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.layout = snap(
                DecompositionSpec.uniform(self.problem.domain, count, OVERLAP),
                self.grid)
        p = RobinParameter(P)
        weights = WeightSpec(gamma=GAMMA, theta=THETA)
        traces = initial_traces(InitialGuess(), self.layout, self.grid,
                                self.problem)
        self.sup_e, self.E, self.phi_ok_20 = [], [], []
        solver_seconds = 0.0
        self.seconds_to_1e8 = None
        for k in range(1, 61):
            t0 = time.perf_counter()
            sols = sweep_once(self.problem, self.grid, self.layout, traces, p)
            # Timing charges only the solver sweeps, not the diagnostics.
            solver_seconds += time.perf_counter() - t0
            fields = [compute_error_fields(s, self.oracle, p, weights,
                                           self.grid) for s in sols]
            self.sup_e.append(max(float(np.max(np.abs(f.e))) for f in fields))
            self.E.append(compute_E(fields))
            if k <= 20:
                self.phi_ok_20.append(
                    all(phi_boundary_check(f).ok for f in fields))
            if self.seconds_to_1e8 is None and self.sup_e[-1] <= 1e-8:
                self.seconds_to_1e8 = solver_seconds
            traces = exchange(sols, self.layout, self.grid, p, traces)
            if self.sup_e[-1] <= 1e-13 and k > 20:
                break

    @property
    def iters_to_1e8(self):
        hits = [k for k, v in enumerate(self.sup_e, start=1) if v <= 1e-8]
        return hits[0] if hits else None


@pytest.fixture(scope="module")
def case_runs():
    return {case: CaseRun(*case) for case in CASES}


@pytest.fixture(scope="module")
def seed7_histories():
    out = {}
    for preset, count in CASES:
        prob = problem_preset(preset)
        grid = build_grid(prob.domain, NX, NT)
        oracle = solve_global(prob, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            layout = snap(DecompositionSpec.uniform(prob.domain, count,
                                                    OVERLAP), grid)
        cfg = SWRConfig(p=RobinParameter(P), max_iters=60, stop_tol=1e-20,
                        guess=InitialGuess(kind="random-smooth", seed=7),
                        gamma=GAMMA)
        out[(preset, count)] = run(prob, grid, layout, cfg, oracle)
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-I{c[1]}")
def test_criterion_1_oracle_equivalence(case_runs, case):
    """max_l sup|e| <= 1e-8 within 60 sweeps, under 10 s per case."""
    r = case_runs[case]
    assert r.iters_to_1e8 is not None and r.iters_to_1e8 <= 60
    assert r.seconds_to_1e8 is not None and r.seconds_to_1e8 <= 10.0
    print(f"criterion 1 ({case[0]} I={case[1]}): PASS "
          f"({r.iters_to_1e8} sweeps, {r.seconds_to_1e8:.2f}s)")


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-I{c[1]}")
def test_criterion_2_window_contraction(seed7_histories, case):
    """Every post-warm-up window ratio <= 0.99 and geometric mean < 0.9."""
    history = seed7_histories[case]
    report = contraction_report(history.E_sequence(), window=case[1])
    post = report.post_warmup_ratios()
    assert post, "no judged windows"
    assert max(post) <= 0.99
    assert report.geometric_mean < 0.9
    print(f"criterion 2 ({case[0]} I={case[1]}): PASS "
          f"(max ratio {max(post):.3f}, geo mean {report.geometric_mean:.3f})")


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-I{c[1]}")
def test_criterion_3_phi_boundary_maximum(case_runs, case):
    """Phi attains its max on the parabolic boundary for every k <= 20."""
    r = case_runs[case]
    assert len(r.phi_ok_20) == 20
    assert all(r.phi_ok_20)
    print(f"criterion 3 ({case[0]} I={case[1]}): PASS (20 sweeps, "
          f"{r.layout.count} subdomains)")


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-I{c[1]}")
def test_criterion_4_pointwise_decay(case_runs, case):
    """sup|e| falls at least 100x from its peak within 40 sweeps."""
    r = case_runs[case]
    window = r.sup_e[:40]
    assert max(window) / window[-1] >= 100.0
    print(f"criterion 4 ({case[0]} I={case[1]}): PASS "
          f"(decay {max(window) / window[-1]:.1e}x)")


def test_criterion_5_overlap_monotonicity(tmp_path, monkeypatch):
    """Doubling overlap 0.1 -> 0.2 does not slow reaching E <= 1e-10."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text("""\
[problem]
preset = heat1d

[decomposition]
count = 2

[iteration]
p = 1.0
stop_tol = 1e-10

[sweep]
overlap_values = 0.1, 0.2

[output]
directory = out
""")
    cfg = load_config(str(tmp_path / "exp.ini"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_experiment(cfg, sweep=True) == 0
    with open("out/summary.csv") as fh:
        rows = {float(r["overlap"]): r for r in csv.DictReader(fh)}
    small, large = int(rows[0.1]["iterations"]), int(rows[0.2]["iterations"])
    assert rows[0.1]["termination"] == rows[0.2]["termination"] == "stop_tol"
    assert large <= small
    print(f"criterion 5: PASS (overlap 0.1 -> {small} iters, "
          f"0.2 -> {large} iters, recorded in summary.csv)")


def _dense_one_sweep(problem, grid, layout, traces, p):
    """Independent brute-force reference for a single sweep.

    Assembles each strip's full space-time system (all backward-Euler steps
    coupled in one dense matrix) directly from the difference formulas and
    solves it with a dense factorization.
    """
    h, dt = grid.hx_axis, grid.dt
    axis, times = grid.axis_nodes(), grid.times()
    coeffs = problem.coeffs
    out = []
    for entry in layout.entries:
        i0, i1 = entry.i_left, entry.i_right
        m = i1 - i0 + 1
        x = axis[i0:i1 + 1]
        N = m * grid.nt
        A = np.zeros((N, N))
        rhs = np.zeros(N)
        u0 = np.asarray(problem.g(0.0, x), dtype=float)

        def idx(step, j):  # step is 1-based time level
            return (step - 1) * m + j

        for step in range(1, grid.nt + 1):
            t = times[step]
            a = float(coeffs.a[0][0](t))
            b = float(coeffs.b[0](t))
            c = float(coeffs.c(t))
            fv = np.asarray(problem.f(t, x), dtype=float)
            for j in range(1, m - 1):
                r = idx(step, j)
                A[r, idx(step, j)] = 1.0 / dt + c + 2.0 * a / h ** 2
                A[r, idx(step, j - 1)] = -a / h ** 2 - b / (2.0 * h)
                A[r, idx(step, j + 1)] = -a / h ** 2 + b / (2.0 * h)
                rhs[r] = fv[j]
                if step == 1:
                    rhs[r] += u0[j] / dt
                else:
                    A[r, idx(step - 1, j)] = -1.0 / dt
            for j, low, data in ((0, True, traces[entry.index][0]),
                                 (m - 1, False, traces[entry.index][1])):
                r = idx(step, j)
                kind = entry.left_kind if low else entry.right_kind
                if kind == "dirichlet":
                    A[r, r] = 1.0
                    rhs[r] = float(data.values[step, 0])
                    continue
                # Ghost elimination: s*(u_in - u_ghost)/(2h) + p u = data
                # substituted into the interior stencil at the face node.
                s = p.sign("left" if low else "right")
                d = float(data.values[step, 0])
                sgn = -1.0 if low else 1.0
                A[r, r] = (1.0 / dt + c + 2.0 * a / h ** 2
                           + sgn * 2.0 * a * p.p / (s * h) - b * p.p / s)
                A[r, idx(step, j + (1 if low else -1))] = -2.0 * a / h ** 2
                rhs[r] = fv[j] + (sgn * 2.0 * a / (s * h) - b / s) * d
                if step == 1:
                    rhs[r] += u0[j] / dt
                else:
                    A[r, idx(step - 1, j)] = -1.0 / dt
        u = np.linalg.solve(A, rhs).reshape(grid.nt, m)
        out.append(np.concatenate([u0[None, :], u], axis=0))
    return out


def test_criterion_6_brute_force_equivalence():
    """Dense space-time solves match the banded path to 1e-10."""
    prob = problem_preset("tvar1d")
    grid = build_grid(prob.domain, 21, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    p = RobinParameter(1.0)
    guess = InitialGuess(kind="random-smooth", seed=2)
    traces = initial_traces(guess, layout, grid, prob)
    production = sweep_once(prob, grid, layout, traces, p)
    dense = _dense_one_sweep(prob, grid, layout, traces, p)
    worst = max(float(np.max(np.abs(sol.values[:, :, 0] - ref)))
                for sol, ref in zip(production, dense))
    assert worst <= 1e-10
    print(f"criterion 6: PASS (max deviation {worst:.2e})")


def _dense_one_sweep_2d(problem, grid, layout, traces, p):
    """Independent brute-force reference for a single 2D sweep.

    Assembles each strip's full space-time system in one dense matrix, node
    by node: the nine-point stencil of L_h, identity rows with g on the
    lateral faces and with the data on Dirichlet axis faces, and on a Robin
    face the stencil's ghost nodes replaced through the discrete condition
    s * (u[i+1] - u[i-1]) / (2h) + p u[i] = data.  Solved with a dense
    factorization.
    """
    h, hc, dt = grid.hx_axis, grid.hx_cross, grid.dt
    axis, cross, times = grid.axis_nodes(), grid.cross_nodes(), grid.times()
    J, coeffs = grid.nx_cross, problem.coeffs
    out = []
    for entry in layout.entries:
        i0, m = entry.i_left, entry.i_right - entry.i_left + 1
        x = axis[i0:i0 + m]
        N = grid.nt * m * J
        A = np.zeros((N, N))
        rhs = np.zeros(N)
        u0 = np.asarray(problem.g(0.0, cross[None, :], x[:, None]), dtype=float)

        def idx(step, i, j):  # step is 1-based time level
            return ((step - 1) * m + i) * J + j

        faces = {0: (entry.left_kind, traces[entry.index][0], p.sign("left"), -1.0),
                 m - 1: (entry.right_kind, traces[entry.index][1], p.sign("right"), 1.0)}
        for step in range(1, grid.nt + 1):
            t = times[step]
            a_ax, a_cr, a_mx = (float(coeffs.a[1][1](t)), float(coeffs.a[0][0](t)),
                                float(coeffs.a[0][1](t)))
            b_ax, b_cr, c = float(coeffs.b[1](t)), float(coeffs.b[0](t)), float(coeffs.c(t))
            stencil = {(0, 0): 1.0 / dt + c + 2.0 * a_ax / h ** 2 + 2.0 * a_cr / hc ** 2}
            for d in (-1, 1):
                stencil[(d, 0)] = -a_ax / h ** 2 + d * b_ax / (2.0 * h)
                stencil[(0, d)] = -a_cr / hc ** 2 + d * b_cr / (2.0 * hc)
                for e in (-1, 1):  # -2 a_12 times the centred cross difference
                    stencil[(d, e)] = -d * e * a_mx / (2.0 * h * hc)
            fv = np.asarray(problem.f(t, cross[None, :], x[:, None]), dtype=float)
            for i in range(m):
                for j in range(J):
                    r = idx(step, i, j)
                    if j in (0, J - 1):
                        A[r, r] = 1.0
                        rhs[r] = float(problem.g(t, cross[j], x[i]))
                        continue
                    kind, data, s, side = faces.get(i, ("interior", None, 0.0, 0.0))
                    if kind == "dirichlet":
                        A[r, r] = 1.0
                        rhs[r] = float(data.values[step, j])
                        continue
                    rhs[r] = fv[i, j]
                    if step == 1:
                        rhs[r] += u0[i, j] / dt
                    else:
                        A[r, idx(step - 1, i, j)] = -1.0 / dt
                    for (di, dj), w in stencil.items():
                        if 0 <= i + di < m:
                            A[r, idx(step, i + di, j + dj)] += w
                            continue
                        # Ghost u[i+di] = u[i-di] + side * (2h/s) (data - p u[i]).
                        d = float(data.values[step, j + dj])
                        A[r, idx(step, i - di, j + dj)] += w
                        A[r, idx(step, i, j + dj)] -= w * side * 2.0 * h * p.p / s
                        rhs[r] -= w * side * 2.0 * h * d / s
        u = np.linalg.solve(A, rhs).reshape(grid.nt, m, J)
        out.append(np.concatenate([u0[None], u], axis=0))
    return out


def test_criterion_6_brute_force_equivalence_2d():
    """The 2D banded path, strips ordered cross-major, matches dense
    space-time solves to 1e-10."""
    prob = problem_preset("tvar2d")
    grid = build_grid(prob.domain, 15, 6, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    p = RobinParameter(1.0)
    operator = StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])
    widest = max(e.i_right - e.i_left + 1 for e in layout.entries)
    assert widest < grid.nx_cross and operator.bandwidth == widest + 1
    guess = InitialGuess(kind="random-smooth", seed=2)
    traces = initial_traces(guess, layout, grid, prob)
    production = sweep_once(prob, grid, layout, traces, p, operator)
    dense = _dense_one_sweep_2d(prob, grid, layout, traces, p)
    worst = max(float(np.max(np.abs(sol.values - ref)))
                for sol, ref in zip(production, dense))
    assert worst <= 1e-10
    print(f"criterion 6 (2D): PASS (max deviation {worst:.2e})")


def test_criterion_7_discretization_orders():
    """Manufactured-solution error factors: [3.4,4.6] in h, [1.7,2.3] in dt."""
    prob = problem_preset("heat1d")

    def err(nx, nt):
        grid = build_grid(prob.domain, nx, nt)
        sol = solve_global(prob, grid)
        exact = prob.exact.u(prob.domain.T, grid.axis_nodes())
        return float(np.max(np.abs(sol.values[-1, :, 0] - exact)))

    space = err(21, 800) / err(41, 800)
    tempo = err(201, 8) / err(201, 16)
    assert 3.4 <= space <= 4.6
    assert 1.7 <= tempo <= 2.3
    print(f"criterion 7: PASS (spatial factor {space:.2f}, "
          f"temporal factor {tempo:.2f})")


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    """Re-running the same config byte-identically reproduces history.csv."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text("""\
[problem]
preset = tvar1d

[grid]
nx_axis = 41
nt = 20

[decomposition]
count = 2
overlap = 0.2

[iteration]
p = 1.0
guess = random-smooth
seed = 7
max_iters = 12

[output]
directory = out
""")
    cfg = load_config(str(tmp_path / "exp.ini"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_experiment(cfg) == 0
        first = open("out/history.csv", "rb").read()
        assert run_experiment(cfg) == 0
        second = open("out/history.csv", "rb").read()
    assert second == first
    print("criterion 8: PASS (byte-identical reruns)")
