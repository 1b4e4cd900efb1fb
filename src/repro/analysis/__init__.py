"""Analysis tools.

§V-A frames BallotBox as every peer running its own opinion poll:
"Assuming the PSS produces random samples and ``B_max`` is large enough
then we can expect the local cache to converge to a reasonable
accuracy."  This package quantifies that claim:

* :mod:`repro.analysis.sampling` — per-node share estimates, their
  error against a ground truth, and the binomial error bound the poll
  analogy predicts;
* :mod:`repro.analysis.convergence` — time-to-threshold extraction
  from experiment time series.
"""

from repro.analysis.convergence import time_to_fraction
from repro.analysis.sampling import (
    ballot_share_estimate,
    binomial_error_bound,
    mean_estimation_error,
)

__all__ = [
    "time_to_fraction",
    "ballot_share_estimate",
    "binomial_error_bound",
    "mean_estimation_error",
]
