"""Dense space-time references for one sweep (acceptance criterion 6).

Each strip's backward-Euler steps are coupled in one dense matrix, built
node by node from the difference formulas, and solved by a dense
factorization: a reference that shares no code with the banded march.
"""

import numpy as np


def dense_one_sweep(problem, grid, layout, traces, p):
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
                    rhs[r] = float(data[step, 0])
                    continue
                # Ghost elimination: s*(u_in - u_ghost)/(2h) + p u = data
                # substituted into the interior stencil at the face node.
                s = p.sign("left" if low else "right")
                d = float(data[step, 0])
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


def dense_one_sweep_2d(problem, grid, layout, traces, p):
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
                        rhs[r] = float(data[step, j])
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
                        d = float(data[step, j + dj])
                        A[r, idx(step, i - di, j + dj)] += w
                        A[r, idx(step, i, j + dj)] -= w * side * 2.0 * h * p.p / s
                        rhs[r] -= w * side * 2.0 * h * d / s
        u = np.linalg.solve(A, rhs).reshape(grid.nt, m, J)
        out.append(np.concatenate([u0[None], u], axis=0))
    return out
