"""Tests for the GPU catalog."""

import pytest

from repro.cluster import gpu_spec
from repro.core import GPUModel, UnknownGPUTypeError


class TestCatalog:
    def test_every_model_has_a_spec(self):
        for model in GPUModel:
            assert gpu_spec(model).model is model

    def test_lookup_by_string(self):
        assert gpu_spec("V100").model is GPUModel.V100

    def test_lookup_by_enum(self):
        assert gpu_spec(GPUModel.T4).model is GPUModel.T4

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownGPUTypeError):
            gpu_spec("RTX9090")


class TestSpecPlausibility:
    def test_v100_faster_than_k80(self):
        assert gpu_spec("V100").fp32_tflops > gpu_spec("K80").fp32_tflops

    def test_memory_ordering(self):
        assert gpu_spec("A100").memory_bytes > gpu_spec("M60").memory_bytes

    def test_pcie3_bandwidth_matches_paper(self):
        # §7.1: all testbed GPUs use PCIe-3 x16 at 15.75 GB/s.
        for name in ("V100", "T4", "K80", "M60"):
            assert gpu_spec(name).pcie_bandwidth == pytest.approx(15.75e9)

    def test_context_creation_positive(self):
        for model in GPUModel:
            assert gpu_spec(model).context_create_s > 0
