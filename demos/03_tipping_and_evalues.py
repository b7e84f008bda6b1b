"""Sensitivity analysis without simulation: tipping points and E-values.

The running numbers are from a language-vs-code-quality analysis: a fitted
language effect of -0.052 that a skill confounder might fully explain.

Run from the repository root:  python3 demos/03_tipping_and_evalues.py
"""

from ovbkit import (
    EValueInput,
    TipInput,
    adjusted_effect,
    evalue_curve,
    evalue_ols,
    tip_n_confounders,
    tip_outcome_effect,
    tip_smd,
    tipping_grid,
    tipping_report,
)

OBSERVED = -0.052          # fitted treatment effect, possibly confounded
SKILL_ON_QUALITY = 0.835   # plausible confounder -> outcome effect
SKILL_SMD = -1.545         # measured confounder -> treatment scaled-mean difference

print(f"measured effect: {OBSERVED}")

# Scenario 1: given the confounder's outcome effect, how unbalanced would the
# confounder have to be across treatment groups to flip the sign?
smd = tip_smd(OBSERVED, SKILL_ON_QUALITY).value
print(f"\n(1) SMD needed given outcome effect {SKILL_ON_QUALITY}: {smd:.3f}")
print(f"    sanity: adjusted effect at that SMD = "
      f"{adjusted_effect(OBSERVED, smd, SKILL_ON_QUALITY).value:.2e}")

# Scenario 2: the converse, solving for the outcome effect.
effect = tip_outcome_effect(OBSERVED, SKILL_SMD).value
print(f"(2) outcome effect needed given SMD {SKILL_SMD}: {effect:.3f}")

# Scenario 3: many weak identical confounders instead of one strong one.
count = tip_n_confounders(OBSERVED, -0.15, 0.17).value
print(f"(3) weak confounders (SMD -0.15, effect 0.17) needed: {count:.2f}")

# The same three answers as one JSON-ready report.
print("\nreport:", tipping_report(TipInput(OBSERVED, 0.17, -0.15)))

# A locus of tipping combinations, ready for plotting.
rows = tipping_grid([OBSERVED], [x / 100 for x in range(-200, 0, 5)],
                    [x / 100 for x in range(2, 100, 5)])
print(f"tipping grid: {len(rows)} (smd, effect) pairs whose product is {OBSERVED}")

# E-values generalize this to continuous treatments: how strong an association
# (risk-ratio scale) must a confounder have with treatment AND outcome to
# explain the estimate away?
print("\nE-values (sigma = 1):")
print("         delta=0.1  delta=0.3  delta=0.5")
for estimate in (0.1, 0.3, 0.5):
    row = [evalue_ols(EValueInput(estimate, 0.0, 1.0, d)).point for d in (0.1, 0.3, 0.5)]
    print(f"beta={estimate:<4} " + "  ".join(f"{e:>9.2f}" for e in row))

curve = evalue_curve([("beta=0.3", 0.3, 0.0, 1.0)], [d / 100 for d in range(1, 51)])
print(f"\ncurve for beta=0.3: E-value grows from {curve[0].evalue:.3f} "
      f"(delta=0.01) to {curve[-1].evalue:.3f} (delta=0.50)")
