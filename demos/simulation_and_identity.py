"""Simulated scenario laws, the second-moment identity, and solution checks.

Scenario i draws its own run of one Philox stream keyed by the seed, so
the simulated law is independent of batch size and thread count.  The discrete identity
splits a semimartingale square into drift, reflection, and martingale
parts whose residual vanishes path by path.
"""

import numpy as np

from rbdsdep.analysis import (
    ItoComponents,
    compare_solutions,
    ito_residual_check,
    norm_report,
    positivity_check,
    skorokhod_check,
)
from rbdsdep.drivers import (
    MarkSpace,
    build_time_grid,
    empty_marks,
    simulate_scenarios,
)
from rbdsdep.generator import GeneratorSpec
from rbdsdep.solver import ProblemSpec, solve_tree_exact

grid = build_time_grid(1.0, 16)
marks = MarkSpace(np.array([1.0]), np.array([2.0]))
scen = simulate_scenarios(grid, 1, marks, 5000, seed=77, mode="gaussian")
comp = ItoComponents(
    alpha0=0.3,
    beta="0.1*t - 0.05",
    gamma="0.2 + 0.1*cos(t)",
    eta="1 + 0.5*sin(t)",
    sigma="0.3",
    dk=np.full((5000, 16), 0.002),
)
rep = ito_residual_check(scen, comp, marks=marks)
print(f"second-moment identity residual: {rep.residual_max:.3e}")
for name, s in rep.martingale_stats.items():
    print(
        f"  {name:4s} martingale mean {s['mean']:+.5f}"
        f"  (se {s['se']:.5f}, within 5 se: {s['within_5se']})"
    )

# lowering the driver, barrier, and terminal data lowers the solution
grid3 = build_time_grid(0.5, 3)
marks3 = MarkSpace(np.array([1.0]), np.array([0.4]))
upper = ProblemSpec(
    grid3, 1, marks3,
    GeneratorSpec(f="0.1 + 0.2*y", g="0.1*y", growth_C=2.0),
    "-3", "w1 + 0.3*j1",
)
lower = ProblemSpec(
    grid3, 1, marks3,
    GeneratorSpec(f="0.1 + 0.2*y - 0.15", g="0.1*y", growth_C=2.0),
    "-3.2", "w1 + 0.3*j1 - 0.25",
)
order = compare_solutions(lower, upper)
print(f"\ncomparison verdict: {order.verdict}   node margin {order.margin:.4f}")

# a certified driver split keeps the solution nonnegative
pos_prob = ProblemSpec(
    build_time_grid(1.0, 4), 1, empty_marks(),
    GeneratorSpec(f="-abs(z1) + 1", g="0", pi="-abs(z1)", rate="1"),
    "-2", "1",
)
sol = solve_tree_exact(pos_prob).to_solution_grid()
pos = positivity_check(sol, pos_prob)
print(f"positivity verdict: {pos.verdict}   min Y = {pos.min_y:.4f}")
print(f"complementarity max |(Y - S) dK| = {skorokhod_check(sol).max():.1f}")
print("norms:", norm_report(sol, empty_marks()))
