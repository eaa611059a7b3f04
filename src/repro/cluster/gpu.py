"""GPU device catalog.

Specs for the four device models of the paper's testbed (§7.1: 8×V100,
4×T4, 1×K80, 2×M60) plus two extras. Numbers are public datasheet values;
the scheduler never consumes them directly — per-(model, GPU) batch times
come from the calibrated profile matrix in :mod:`repro.workload.profiles` —
but the memory model, PCIe transfer model and the switching cost model do.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import UnknownGPUTypeError
from ..core.types import GIB, GPUModel


@dataclass(frozen=True, slots=True)
class GPUSpec:
    """Static description of one GPU device model.

    Attributes
    ----------
    model:
        Device model identifier.
    memory_bytes:
        Usable device memory.
    fp32_tflops:
        Peak single-precision throughput (datasheet, for documentation and
        speedup extrapolation of models absent from the profile matrix).
    mem_bandwidth:
        Device memory bandwidth in bytes/s.
    pcie_bandwidth:
        Host-to-device transfer bandwidth in bytes/s. The testbed uses
        PCIe 3.0 x16 for all devices (§7.1: 15.75 GB/s).
    context_create_s:
        Time to create a fresh CUDA context on this device (used by the
        DEFAULT switching mode; PipeSwitch/Hare pre-create contexts).
    malloc_gb_per_s:
        Effective cudaMalloc + initialization throughput when (re)allocating
        a model's working set, in bytes/s.
    """

    model: GPUModel
    memory_bytes: float
    fp32_tflops: float
    mem_bandwidth: float
    pcie_bandwidth: float = 15.75e9
    context_create_s: float = 0.45
    malloc_gb_per_s: float = 25e9


_CATALOG: dict[GPUModel, GPUSpec] = {
    GPUModel.V100: GPUSpec(
        model=GPUModel.V100,
        memory_bytes=16 * GIB,
        fp32_tflops=14.0,
        mem_bandwidth=900e9,
    ),
    GPUModel.T4: GPUSpec(
        model=GPUModel.T4,
        memory_bytes=16 * GIB,
        fp32_tflops=8.1,
        mem_bandwidth=300e9,
    ),
    GPUModel.K80: GPUSpec(
        model=GPUModel.K80,
        memory_bytes=12 * GIB,  # per-die half of the dual-die board
        fp32_tflops=4.1,
        mem_bandwidth=240e9,
        context_create_s=0.60,
    ),
    GPUModel.M60: GPUSpec(
        model=GPUModel.M60,
        memory_bytes=8 * GIB,
        fp32_tflops=4.8,
        mem_bandwidth=160e9,
        context_create_s=0.55,
    ),
    GPUModel.P100: GPUSpec(
        model=GPUModel.P100,
        memory_bytes=16 * GIB,
        fp32_tflops=9.3,
        mem_bandwidth=732e9,
    ),
    GPUModel.A100: GPUSpec(
        model=GPUModel.A100,
        memory_bytes=40 * GIB,
        fp32_tflops=19.5,
        mem_bandwidth=1555e9,
        pcie_bandwidth=31.5e9,
        context_create_s=0.35,
    ),
}


def gpu_spec(model: GPUModel | str) -> GPUSpec:
    """Look up the spec for a GPU model (by enum or name string)."""
    if isinstance(model, str):
        try:
            model = GPUModel(model)
        except ValueError:
            raise UnknownGPUTypeError(
                model, tuple(m.value for m in GPUModel)
            ) from None
    try:
        return _CATALOG[model]
    except KeyError:  # pragma: no cover - catalog covers the enum
        raise UnknownGPUTypeError(
            str(model), tuple(m.value for m in GPUModel)
        ) from None
