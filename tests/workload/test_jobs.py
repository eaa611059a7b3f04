"""Tests for workload/job generation."""

import numpy as np
import pytest

from repro.core import Domain, ModelName
from repro.core.errors import ConfigurationError
from repro.workload import (
    WorkloadConfig,
    generate_jobs,
    mix_with_boost,
    model_spec,
    sample_job,
    sample_model,
)


class TestWorkloadConfig:
    def test_default_mix_is_uniform(self):
        mix = WorkloadConfig().normalized_mix()
        assert all(v == pytest.approx(0.25) for v in mix.values())

    def test_mix_normalization(self):
        cfg = WorkloadConfig(domain_mix={Domain.CV: 2.0, Domain.NLP: 2.0})
        mix = cfg.normalized_mix()
        assert mix[Domain.CV] == pytest.approx(0.5)
        assert Domain.REC not in mix

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(domain_mix={Domain.CV: 0.0}),
            dict(rounds_scale=0.0),
            dict(batch_scale=-1),
            dict(max_sync_scale=0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**kwargs)


class TestSampling:
    def test_sample_model_respects_pure_mix(self):
        cfg = WorkloadConfig(domain_mix={Domain.NLP: 1.0})
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = sample_model(cfg, rng)
            assert model in (ModelName.BERT_BASE, ModelName.TRANSFORMER)

    def test_sample_job_fields(self):
        cfg = WorkloadConfig(batch_scale=2.0)
        rng = np.random.default_rng(1)
        job = sample_job(7, 3.5, cfg, rng)
        assert job.job_id == 7
        assert job.arrival == 3.5
        assert job.batch_scale == 2.0
        assert job.num_rounds >= 1
        assert 1 <= job.sync_scale <= cfg.max_sync_scale
        assert job.weight in cfg.weight_choices

    def test_rounds_scale_shrinks_jobs(self):
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        big = sample_job(0, 0, WorkloadConfig(rounds_scale=1.0), rng_a)
        small = sample_job(0, 0, WorkloadConfig(rounds_scale=0.1), rng_b)
        assert small.num_rounds <= big.num_rounds
        assert small.num_rounds >= 1

    def test_max_sync_scale_clamps(self):
        cfg = WorkloadConfig(max_sync_scale=1)
        rng = np.random.default_rng(3)
        for i in range(10):
            assert sample_job(i, 0, cfg, rng).sync_scale == 1


class TestGenerateJobs:
    def test_ids_in_arrival_order(self):
        jobs = generate_jobs([5.0, 1.0, 3.0], seed=0)
        assert [j.job_id for j in jobs] == [0, 1, 2]
        assert [j.arrival for j in jobs] == [1.0, 3.0, 5.0]

    def test_deterministic_given_seed(self):
        a = generate_jobs([0, 1, 2], seed=9)
        b = generate_jobs([0, 1, 2], seed=9)
        assert [(j.model, j.num_rounds) for j in a] == [
            (j.model, j.num_rounds) for j in b
        ]

    def test_nlp_jobs_are_heavier(self):
        """Fig. 17's premise: NLP jobs involve more work than Rec. jobs."""
        nlp = generate_jobs(
            [0.0] * 60,
            WorkloadConfig(domain_mix={Domain.NLP: 1.0}),
            seed=1,
        )
        rec = generate_jobs(
            [0.0] * 60,
            WorkloadConfig(domain_mix={Domain.REC: 1.0}),
            seed=1,
        )
        assert np.mean([j.num_rounds for j in nlp]) > 1.5 * np.mean(
            [j.num_rounds for j in rec]
        )

    def test_domain_of_job(self):
        jobs = generate_jobs(
            [0.0] * 5, WorkloadConfig(domain_mix={Domain.SPEECH: 1.0}), seed=2
        )
        assert all(model_spec(j.model).domain is Domain.SPEECH for j in jobs)


class TestMixWithBoost:
    def test_boost_fraction(self):
        mix = mix_with_boost(Domain.NLP, 0.55)
        assert mix[Domain.NLP] == pytest.approx(0.55)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_other_domains_equal(self):
        mix = mix_with_boost(Domain.CV, 0.4)
        others = [v for d, v in mix.items() if d is not Domain.CV]
        assert all(o == pytest.approx(0.2) for o in others)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_fraction(self, bad):
        with pytest.raises(ConfigurationError):
            mix_with_boost(Domain.CV, bad)
