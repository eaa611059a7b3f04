"""Workload substrate: model zoo, calibrated profiles, jobs, traces."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".jobs": (
        "DEFAULT_DOMAIN_MIX DEFAULT_TEMPLATES JobTemplate WorkloadConfig "
        "generate_jobs mix_with_boost sample_job sample_model"
    ),
    ".models": "DLModelSpec model_spec models_by_domain",
    ".profiler": (
        "ProfileDatabase ProfileKey ProfileRecord TaskProfiler build_instance"
    ),
    ".profiles": (
        "PROFILES BatchTimeProfile batch_time profile_for speedup_table "
        "speedup_vs_k80 train_utilization"
    ),
    ".trace": "GoogleLikeTrace",
    ".traceio": "load_jobs_csv save_jobs_csv",
})
