"""Arrival-trace synthesis.

The paper feeds its simulator job arrival times "set according to the trace
in Google cluster [3]" (§7.1). We cannot ship that trace, so this module
synthesizes an arrival process with the same qualitative features published
for Google cluster workloads: bursty submissions (many jobs arrive together)
with heavy-tailed gaps between bursts. The generator is seedable and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class GoogleLikeTrace:
    """Bursty, heavy-tailed arrival process shaped like Google cluster data.

    Jobs arrive in bursts: burst sizes are geometric (mean ``burst_mean``),
    gaps between bursts are lognormal with median ``gap_median_s`` and shape
    ``gap_sigma`` (σ of the underlying normal — heavier tail for larger σ),
    and jobs within one burst are spread over ``intra_burst_s`` seconds.
    """

    burst_mean: float = 3.0
    gap_median_s: float = 60.0
    gap_sigma: float = 1.0
    intra_burst_s: float = 5.0

    def __post_init__(self) -> None:
        if self.burst_mean < 1:
            raise ConfigurationError("burst_mean must be >= 1")
        if self.gap_median_s <= 0 or self.intra_burst_s < 0:
            raise ConfigurationError("trace time scales must be positive")

    def sample(
        self, num_jobs: int, seed: int | np.random.Generator = 0
    ) -> np.ndarray:
        """Sorted arrival times (seconds) for *num_jobs* jobs."""
        rng = _as_rng(seed)
        arrivals: list[float] = []
        t = 0.0
        while len(arrivals) < num_jobs:
            size = 1 + rng.geometric(1.0 / self.burst_mean)
            size = int(min(size, num_jobs - len(arrivals)))
            offsets = np.sort(rng.uniform(0.0, self.intra_burst_s, size=size))
            arrivals.extend((t + o) for o in offsets)
            t += float(
                rng.lognormal(mean=np.log(self.gap_median_s), sigma=self.gap_sigma)
            )
        return np.array(sorted(arrivals[:num_jobs]))


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
