"""Show omitted-variable bias numerically: the same regression is fine on two
generative processes and badly off on the third, where the omitted variable
also drives the treatment.

Run from the repository root:  python3 demos/02_confounded_regression.py
"""

import math

from ovbkit import added_cause_scm, confounded_scm, direct_effect_scm, ols_fit, sample

N = 200_000
X_Y, Z_Y, Z_X = 0.4, 0.7, 0.2

processes = {
    "X -> Y only": sample(direct_effect_scm(X_Y), N, seed=101),
    "independent Z -> Y": sample(added_cause_scm(X_Y, Z_Y), N, seed=202),
    "Z confounds X and Y": sample(confounded_scm(X_Y, Z_Y, Z_X), N, seed=303),
}

print(f"true X -> Y effect everywhere: {X_Y}\n")
print(f"{'process':<22} {'model':<10} {'beta_X':>8} {'gamma_Z':>8} {'sigma':>7}")
for name, data in processes.items():
    short = ols_fit(data, "Y", ["X"])
    print(f"{name:<22} {'Y ~ X':<10} {short.coefficients['X']:>8.3f} {'':>8} {short.sigma:>7.3f}")
    if "Z" in data.columns:
        full = ols_fit(data, "Y", ["X", "Z"])
        print(f"{'':<22} {'Y ~ X + Z':<10} {full.coefficients['X']:>8.3f} "
              f"{full.coefficients['Z']:>8.3f} {full.sigma:>7.3f}")

# Leaving an independent cause out only inflates sigma: the Z term folds into
# the noise, whose scale becomes sqrt(1 + Z_Y**2).
print(f"\nexpected inflated sigma without Z: {math.sqrt(1 + Z_Y**2):.3f}")

# Under confounding the short model's slope absorbs the backdoor association:
# X_Y + Z_Y * Z_X / (1 + Z_X**2).
print(f"expected biased slope under confounding: {X_Y + Z_Y * Z_X / (1 + Z_X**2):.3f}")
print("\nMore samples would only tighten these numbers around the wrong value;")
print("the fix is conditioning on Z (or showing its influence is small).")
