"""Parametric estimation: simulate, fit, and score against the truth.

A three-channel system with a sharp autoregressive resonance drives the
chain 1 -> 2 and feeds channel 1 and an independent channel 3 through a
short moving-average mixing stage.  We simulate one long realization,
fit it three ways, and compare each fitted total-PDC field against the
theoretical one.

* VAR: stagewise forward/backward prediction-error recursion, order
  selected automatically by an information criterion;
* VMA: long-autoregression residuals, then a lag regression;
* VARMA: both parts jointly, at the generating orders.
"""

import numpy as np

from spectralgc import (
    FrequencyGrid,
    example_model,
    fit_var,
    fit_varma,
    fit_vma,
    innovation_form,
    mse_vs_reference,
    simulate,
    total_pdc,
    transfer_function,
)

model = example_model(2)
panel = simulate(model, n_samples=16384, seed=42)
print(f"simulated panel: {panel.n_channels} channels x {panel.n_samples} samples")

# The reference field comes from the generator reduced to its canonical
# zero-lag-identity form — the form every estimator converges to.
grid = FrequencyGrid(512)
reference = total_pdc(transfer_function(innovation_form(model), grid), method_tag="theory")

# ---------------------------------------------------------------------
# VAR with automatic order selection
# ---------------------------------------------------------------------
var_fit = fit_var(panel, p_max=30)
print()
print("VAR order selected:", var_fit.selected_order[0])
print("criterion values:", ", ".join(f"p={int(p)}: {v:.3f}" for p, v in var_fit.criterion_values[:6]))

# ---------------------------------------------------------------------
# Two-step VMA and VARMA at fixed orders
# ---------------------------------------------------------------------
vma_fit = fit_vma(panel, q=20)
varma_fit = fit_varma(panel, p=2, q=2)

print()
print(f"{'method':<12}{'tPDC MSE vs theory':>20}")
for name, fit in (("var", var_fit), ("vma(20)", vma_fit), ("varma(2,2)", varma_fit)):
    # a method tag is a CSV column and may not hold a comma, so the orders stay in the label
    field = total_pdc(transfer_function(fit.model, grid), method_tag=name.split("(")[0])
    err = mse_vs_reference(field, reference)
    print(f"{name:<12}{err:>20.3e}")

print()
print("innovation covariance recovered by the VARMA fit:")
print(np.round(varma_fit.model.innovations_cov, 3))
