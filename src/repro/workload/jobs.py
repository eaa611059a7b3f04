"""Job generation: turning a workload mix into concrete :class:`Job` lists.

The evaluation's default workload (§7.1, Table 2) draws jobs uniformly from
four domains (CV / NLP / Speech / Rec., 25 % each); Fig. 17 sweeps these
fractions. NLP jobs are the heaviest (more rounds and longer batches), Rec.
jobs the lightest — the generator encodes that so the Fig. 17 trends emerge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.job import Job
from ..core.types import Domain, ModelName
from .models import models_by_domain


@dataclass(frozen=True, slots=True)
class JobTemplate:
    """Sampling ranges for jobs training one model."""

    model: ModelName
    rounds_range: tuple[int, int]
    sync_scales: tuple[int, ...]
    weight_range: tuple[float, float] = (1.0, 1.0)


#: Per-model round counts, scaled so simulated traces finish in simulated
#: hours (the paper downscales SQuAD/WMT16 for the same reason, §7.1).
#: NLP > Speech > CV > Rec. in total work, matching Fig. 17's observations.
DEFAULT_TEMPLATES: dict[ModelName, JobTemplate] = {
    ModelName.VGG19: JobTemplate(ModelName.VGG19, (30, 80), (1, 2, 2)),
    ModelName.RESNET50: JobTemplate(ModelName.RESNET50, (40, 100), (1, 2, 4)),
    ModelName.INCEPTION_V3: JobTemplate(
        ModelName.INCEPTION_V3, (30, 80), (1, 2, 2)
    ),
    ModelName.BERT_BASE: JobTemplate(ModelName.BERT_BASE, (60, 140), (2, 2, 4)),
    ModelName.TRANSFORMER: JobTemplate(
        ModelName.TRANSFORMER, (60, 140), (2, 2, 4)
    ),
    ModelName.DEEPSPEECH: JobTemplate(ModelName.DEEPSPEECH, (40, 110), (1, 2, 2)),
    ModelName.FASTGCN: JobTemplate(ModelName.FASTGCN, (15, 50), (1, 2)),
    ModelName.GRAPHSAGE: JobTemplate(ModelName.GRAPHSAGE, (15, 50), (1, 2)),
}

#: The default domain mix of §7.1: each domain 25 % of jobs.
DEFAULT_DOMAIN_MIX: dict[Domain, float] = {
    Domain.CV: 0.25,
    Domain.NLP: 0.25,
    Domain.SPEECH: 0.25,
    Domain.REC: 0.25,
}


@dataclass(slots=True)
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    domain_mix:
        Probability of each domain (normalized internally; Fig. 17 sweeps).
    rounds_scale:
        Multiplier on every template's round counts — lets tests shrink
        traces without changing their relative shape.
    batch_scale:
        Multiplier on per-batch training time (Fig. 19: B0 / 2·B0 / 4·B0).
    weight_choices:
        Job weights are drawn uniformly from this tuple.
    max_sync_scale:
        Upper clamp on tasks per round (never above the cluster size).
    """

    domain_mix: Mapping[Domain, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_MIX)
    )
    rounds_scale: float = 1.0
    batch_scale: float = 1.0
    weight_choices: tuple[float, ...] = (1.0, 2.0, 3.0)
    max_sync_scale: int = 8
    templates: Mapping[ModelName, JobTemplate] = field(
        default_factory=lambda: dict(DEFAULT_TEMPLATES)
    )

    def __post_init__(self) -> None:
        total = sum(self.domain_mix.values())
        if total <= 0:
            raise ConfigurationError("domain_mix must have positive mass")
        if self.rounds_scale <= 0 or self.batch_scale <= 0:
            raise ConfigurationError("scales must be > 0")
        if self.max_sync_scale < 1:
            raise ConfigurationError("max_sync_scale must be >= 1")

    def normalized_mix(self) -> dict[Domain, float]:
        total = sum(self.domain_mix.values())
        return {d: v / total for d, v in self.domain_mix.items() if v > 0}


def sample_model(config: WorkloadConfig, rng: np.random.Generator) -> ModelName:
    """Draw a model: first a domain by mix, then uniform within the domain."""
    mix = config.normalized_mix()
    domains = list(mix)
    probs = np.array([mix[d] for d in domains])
    domain = domains[int(rng.choice(len(domains), p=probs))]
    candidates = [
        spec.name
        for spec in models_by_domain(domain)
        if spec.name in config.templates
    ]
    if not candidates:
        raise ConfigurationError(f"no templates for domain {domain}")
    return candidates[int(rng.integers(len(candidates)))]


def sample_job(
    job_id: int,
    arrival: float,
    config: WorkloadConfig,
    rng: np.random.Generator,
    *,
    model: ModelName | None = None,
) -> Job:
    """Draw one job from the workload distribution."""
    if model is None:
        model = sample_model(config, rng)
    template = config.templates[model]
    lo, hi = template.rounds_range
    rounds = max(1, round(float(rng.integers(lo, hi + 1)) * config.rounds_scale))
    sync_scale = min(
        int(template.sync_scales[int(rng.integers(len(template.sync_scales)))]),
        config.max_sync_scale,
    )
    weight = float(
        config.weight_choices[int(rng.integers(len(config.weight_choices)))]
    )
    return Job(
        job_id=job_id,
        model=model.value,
        arrival=float(arrival),
        weight=weight,
        num_rounds=rounds,
        sync_scale=sync_scale,
        batch_scale=config.batch_scale,
    )


def generate_jobs(
    arrivals: Sequence[float],
    config: WorkloadConfig | None = None,
    *,
    seed: int | np.random.Generator = 0,
) -> list[Job]:
    """Generate one job per arrival time, ids in arrival order."""
    config = config or WorkloadConfig()
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    ordered = sorted(float(a) for a in arrivals)
    return [
        sample_job(job_id, arrival, config, rng)
        for job_id, arrival in enumerate(ordered)
    ]


def mix_with_boost(domain: Domain, fraction: float) -> dict[Domain, float]:
    """A domain mix where *domain* takes *fraction* and the rest split evenly.

    This is how Fig. 17 perturbs the workload ("increase one of them and
    keep others the same").
    """
    if not 0 < fraction < 1:
        raise ConfigurationError("fraction must be in (0, 1)")
    others = [d for d in Domain if d != domain]
    rest = (1.0 - fraction) / len(others)
    mix = {d: rest for d in others}
    mix[domain] = fraction
    return mix
