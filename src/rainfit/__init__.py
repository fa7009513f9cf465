"""Parametric models of wet-day rainfall amounts, and a benchmark around them.

The package fits an extended generalized Pareto family (by maximum
likelihood or probability weighted moments, each with a left-censored
variant) and gamma mixtures with 2 to 4 components (by MAP under a
conjugate prior), then scores every method by the log ratio of fitted to
empirical quantiles across a corpus of sites.

Import names from the submodules (`rainfit.egpd`, `rainfit.gamma_mixture`,
`rainfit.pipeline`, ...): the package itself exports only `__version__`,
so importing one submodule loads no other.
"""

__version__ = "0.1.0"
