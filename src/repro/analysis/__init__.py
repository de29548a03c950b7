"""Statistical analysis substrate: discrete power-law fitting.

Section 6.1 fits power laws to the per-POI aggregate distributions with
the method of Clauset, Shalizi & Newman (2009): maximum-likelihood
exponent, KS-minimising lower bound and a semi-parametric bootstrap
goodness-of-fit p-value (Table 2).
"""

from repro.analysis.powerlaw import (
    GoodnessOfFit,
    PowerLawFit,
    fit_discrete_powerlaw,
    goodness_of_fit,
    powerlaw_cdf,
    sample_discrete_powerlaw,
)

__all__ = [
    "PowerLawFit",
    "GoodnessOfFit",
    "fit_discrete_powerlaw",
    "goodness_of_fit",
    "powerlaw_cdf",
    "sample_discrete_powerlaw",
]
