"""Geodesics through a regularized impulsive gravitational wave.

The pulse profile D(u) = rho(u/eps)/eps concentrates on |u| < eps; a
geodesic entering at rest feels one transverse kick.  As eps shrinks,
the transverse coordinate converges (Cauchy sups halve with eps) to a
kinked straight line, the velocity jump stabilizes, and the kink is
associated to the family in the 0-jet sense.  The longitudinal velocity
stays unbounded like 1/eps, which is why the limit lives in the
generalized algebra rather than among classical curves.
"""

from colombeau.asymptotics import EpsGrid
from colombeau.association import standard_mollifier
from colombeau.ppwave import default_profile, kink_limit_study, trajectory_csv

profile = default_profile()          # f(x, y) = x^2 - y^2
rho = standard_mollifier()
rest_at_x1 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)   # v, x, y, v', x', y'

print("kink study on dyadic eps grid 2^-6 .. 2^-12\n")
report = kink_limit_study(
    profile, rho, rest_at_x1, EpsGrid.dyadic(6, 12), u_span=(-0.5, 0.5)
)
for line in report.lines():
    print("   ", line)

print("\ncauchy sups (consecutive eps pairs):")
for i, s in enumerate(report.cauchy_sups):
    print(f"    pair {i}: {s:.3e}")

# the study keeps its solved slices; the dump reuses two of them
out = "kink_trajectories.csv"
trajectory_csv(report.net, [2.0**-6, 2.0**-9], out)
print(f"\ndense trajectories for two eps values written to {out}")
