"""When every method agrees on a link that does not exist.

All second-order estimation — parametric or not — identifies a spectral
factor whose roots lie inside the unit circle (minimum phase), because
the data's second-order statistics cannot distinguish a moving-average
root z0 from 1/z0.  If the true generator has roots *outside* the unit
circle, everything still converges, all methods agree with each other,
and the common answer shows a directed link the generator does not have.

The library flags this situation in the experiment summaries
(`nonminimum_phase_generator`, `spurious_link_detected`); this script
shows the mechanics on one realization.
"""

import numpy as np

from spectralgc import (
    FrequencyGrid,
    example_model,
    fit_var,
    fit_vma,
    innovation_form,
    ma_root_report,
    mse_vs_reference,
    simulate,
    total_pdc,
    transfer_function,
    welch_cross_spectrum,
    wilson_factorize,
)

model = example_model(4)
report = ma_root_report(model)
print("generator MA root magnitudes:", np.round(report.magnitudes, 3))
print("classification:", report.classification)

grid = FrequencyGrid(256)
theory = total_pdc(transfer_function(innovation_form(model), grid), method_tag="theory")
print()
print("true tPDC 1 -> 2 (max over band):", np.max(np.abs(theory.values[:, 1, 0])))

# ---------------------------------------------------------------------
# Fit the same realization three independent ways
# ---------------------------------------------------------------------
panel = simulate(model, n_samples=16384, seed=0)
estimates = {
    "var": total_pdc(transfer_function(fit_var(panel).model, grid), method_tag="var"),
    "vma": total_pdc(transfer_function(fit_vma(panel, q=2).model, grid), method_tag="vma"),
    "wn": total_pdc(
        wilson_factorize(welch_cross_spectrum(panel, segment_len=256)),
        method_tag="wn",
    ),
}

# every fitted MA polynomial is minimum phase, whatever the truth was
fitted_roots = ma_root_report(fit_vma(panel, q=2).model)
print("fitted VMA root magnitudes:  ", np.round(fitted_roots.magnitudes, 3))

print()
print(f"{'method':<8}{'peak tPDC[2,1]':>16}{'MSE vs theory':>16}")
for name, est in estimates.items():
    peak = np.max(est.values[:, 1, 0].real)
    err = mse_vs_reference(est, theory)
    print(f"{name:<8}{peak:>16.3f}{err:>16.3e}")

print()
print("pairwise MSE between estimates (they agree with each other):")
names = list(estimates)
for a in range(len(names)):
    for b in range(a + 1, len(names)):
        err = mse_vs_reference(estimates[names[a]], estimates[names[b]])
        print(f"  {names[a]} vs {names[b]}: {err:.3e}")

print()
print("Same data, same agreement, wrong graph: a strong 1 -> 2 link in")
print("every estimate, none in the generator.  Only prior knowledge that")
print("the system is minimum phase makes the estimated graph trustworthy.")
