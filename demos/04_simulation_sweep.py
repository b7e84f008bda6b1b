"""Simulation-based sensitivity: sweep the strength of an unmeasured
confounder in the team-effort model and watch the estimate drift.

A trimmed grid keeps this demo around ten seconds; the bundled
``table5.conf`` runs the full 324-cell version (also via
``python3 -m ovbkit simulate``).

Run from the repository root:  python3 demos/04_simulation_sweep.py
"""

from ovbkit import expected_treatment_estimate, parse_sweep_config, run_sweep

CONFIG = """
# fixed context-edge weights (ballpark standardized effect sizes)
param.b_e = 0.3
param.b_s = 0.3
param.k_e = 0.1
param.k_s = 0.1
param.o_e = 0.5
param.o_t = 0.5
param.s_e = -0.1
param.s_t = -0.1
# swept: true treatment effect and both confounder weights
grid.t_e = 0.3
grid.z_e = -0.5, -0.1, 0.1, 0.5
grid.z_t = -0.5, -0.1, 0.1, 0.5
n = 5, 50
repetitions = 200
seed = 20240211
outcome = E
predictors = T, B, K, O, S
"""

config = parse_sweep_config(CONFIG)
result = run_sweep(config)

print("true effect t_e = 0.3; regression omits the confounder Z\n")
print(f"{'z_e':>5} {'z_t':>5} {'n':>3} {'mean':>7} {'oracle':>7} {'95% interval':>18}")
for cell in result.cells:
    oracle = expected_treatment_estimate(0.3, cell.params["z_e"], cell.params["z_t"])
    band = f"[{cell.hpdi95.low:+.2f}, {cell.hpdi95.high:+.2f}]"
    print(f"{cell.params['z_e']:>5} {cell.params['z_t']:>5} {cell.n:>3} "
          f"{cell.mean:>+7.3f} {oracle:>+7.3f} {band:>18}")

print("""
Reading the table:
- weak confounding (|z| = 0.1) leaves the mean estimate near 0.3;
- same-sign strong confounding overestimates, mixed signs underestimate,
  matching the closed form t_e + z_e * z_t / (1 + z_t**2);
- n = 5 rows have very wide intervals: too few samples to say much either way.
""")

# Identical config and seed always reproduce the same CSV, byte for byte.
assert run_sweep(config).to_csv() == result.to_csv()
print("re-run with the same seed: byte-identical CSV")
