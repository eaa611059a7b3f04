"""Mini-DML training engine: NumPy PS-synchronous SGD (§2.2.3 substrate)."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".data": "Dataset make_classification",
    ".model": "LogisticRegression TrainableModel",
    ".training": "ParameterServer TrainingResult train",
})
