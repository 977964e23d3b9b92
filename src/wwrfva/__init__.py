"""Counterparty-risk engine: FVA with wrong-way risk.

Computes funding valuation adjustments for multi-currency portfolios of
IR swaps and FX forwards, both by full Monte Carlo simulation (rates,
FX and credit jointly) and by a fast moment-based approximation that
only needs the credit-free simulation. Error bounds and bump-and-revalue
sensitivities are included.
"""

__version__ = "0.1.0"

# The run methods: the Monte Carlo benchmark and the two approximations.
METHODS = ("mc", "approx_generic", "approx_analytic")
