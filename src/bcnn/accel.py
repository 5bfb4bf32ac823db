"""First-order performance model of the replicated-kernel deployment.

A single inference kernel pipelines one convolution at a time; its cycle
count is the product of the loop trip counts that are not unrolled, plus a
fixed pipeline fill.  Replicating the kernel k times multiplies throughput:
frames/s = floor(kernel_count / kernel_latency).

The module also carries the measured reference numbers for the two shipped
model kernels on the Alveo U280 (per-kernel latency, kernel counts,
resource utilization, and the GPU baseline throughputs) so reports can be
reproduced and formatted without rerunning synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .binary_ops import ConvGeometry
from .errors import InvalidConfig, check_integer
from .models import BinaryConvLayer, ComplexConvLayer, ModelGraph, graph_nodes
from .tensors import words_per_pixel


@dataclass(frozen=True)
class KernelConfig:
    """Unroll factors and replication of one inference kernel."""

    p_out: int = 1
    p_in: int = 1
    ii: int = 1
    clock_hz: float = 300e6
    pipeline_fill: int = 10
    kernel_latency_s: float | None = None
    kernel_count: int = 1

    def __post_init__(self):
        # every check fails on NaN and on +-inf
        for name in ("p_out", "p_in", "ii", "kernel_count", "pipeline_fill"):
            check_integer(name, getattr(self, name))
        if not all(1 <= v < math.inf for v in (self.p_out, self.p_in, self.ii, self.kernel_count)):
            raise InvalidConfig("unroll factors, ii and kernel_count must be finite and >= 1")
        if not (0 < self.clock_hz < math.inf and 0 <= self.pipeline_fill < math.inf):
            raise InvalidConfig("clock must be finite and positive, pipeline fill finite and "
                                f"non-negative, got {self.clock_hz} and {self.pipeline_fill}")
        if self.kernel_latency_s is not None and not 0 < self.kernel_latency_s < math.inf:
            raise InvalidConfig(f"kernel latency must be finite and > 0, "
                                f"got {self.kernel_latency_s}")


@dataclass(frozen=True)
class ResourceRecord:
    """One row of a resource utilization report."""

    name: str
    used: int
    total: int

    def __post_init__(self):
        if self.used > self.total:
            raise InvalidConfig(f"{self.name}: used {self.used} > total {self.total}")

    @property
    def percentage(self) -> float:
        return round(self.used / self.total * 100.0, 2)


def conv_cycles(geometry: ConvGeometry, input_hw: tuple[int, int],
                cfg: KernelConfig) -> int:
    """Pipelined cycle count of one convolution layer.

    cycles = ceil(out_c/p_out) * ceil(words/p_in) * h_out * w_out
             * kh * kw * ii + pipeline fill,
    where words = ceil(in_c/64) is the packed input-channel width.
    """
    h_out, w_out = geometry.out_hw(*input_hw)
    kh, kw = geometry.kernel
    words = words_per_pixel(geometry.in_channels)
    trips = (
        math.ceil(geometry.out_channels / cfg.p_out)
        * math.ceil(words / cfg.p_in)
        * h_out
        * w_out
        * kh
        * kw
        * cfg.ii
    )
    return trips + cfg.pipeline_fill


def conv_stack(model: ModelGraph) -> list[tuple[ConvGeometry, tuple[int, int]]]:
    """The model's convolution geometries with their input spatial sizes,
    block paths included (main path first)."""
    return [(node.geometry, act.dims[1:]) for node, act in graph_nodes(model)
            if isinstance(node, (ComplexConvLayer, BinaryConvLayer))]


def stack_cycles(model: ModelGraph, cfg: KernelConfig) -> int:
    """Total cycles of the model's convolution stack under one kernel config."""
    return sum(conv_cycles(g, hw, cfg) for g, hw in conv_stack(model))


def stack_latency_s(model: ModelGraph, cfg: KernelConfig) -> float:
    return stack_cycles(model, cfg) / cfg.clock_hz


def throughput(cfg: KernelConfig) -> int:
    """frames/s = floor(kernel_count / kernel_latency_s)."""
    if cfg.kernel_latency_s is None:
        raise InvalidConfig("kernel_latency_s is required for throughput")
    return math.floor(cfg.kernel_count / cfg.kernel_latency_s)


def speedup_report(fpga_fps: float, baseline_fps: float) -> float:
    """Throughput ratio rounded to 2 decimals."""
    if not 0 < baseline_fps < math.inf:
        raise InvalidConfig(f"baseline throughput must be finite and > 0, got {baseline_fps}")
    if not 0 <= fpga_fps < math.inf:
        raise InvalidConfig(f"throughput must be finite and >= 0, got {fpga_fps}")
    return round(fpga_fps / baseline_fps, 2)


# ---------------------------------------------------------------------------
# measured reference numbers (Alveo U280 kernels, RTX 6000 baseline)
# ---------------------------------------------------------------------------

NIN_KERNEL_LATENCY_S = 1.53e-3
RESNET18_KERNEL_LATENCY_S = 1.62e-3
NIN_KERNEL_COUNT = 9
RESNET18_KERNEL_COUNT = 8

NIN_U280_RESOURCES = (
    ResourceRecord("DSP", 575, 9024),
    ResourceRecord("FF", 88845, 2607360),
    ResourceRecord("LUT", 137387, 1303680),
)
RESNET18_U280_RESOURCES = (
    ResourceRecord("DSP", 465, 9024),
    ResourceRecord("FF", 112347, 2607360),
    ResourceRecord("LUT", 161306, 1303680),
)

GPU_BASELINE_FPS = {"nin": 3890, "resnet18": 3123}

REFERENCE_THROUGHPUT_ROWS = (
    ("BCNN based NIN-Net", "Alveo U280", 5882),
    ("BCNN based NIN-Net", "RTX 6000", 3890),
    ("BCNN based ResNet-18", "Alveo U280", 4938),
    ("BCNN based ResNet-18", "RTX 6000", 3123),
)


def format_resource_table(records) -> str:
    """Plain-text table: Resource | Utilization | Total | percentage (%)."""
    header = f"{'Resource':<10} {'Utilization':>12} {'Total':>10} {'percentage (%)':>15}"
    rows = [
        f"{r.name:<10} {r.used:>12} {r.total:>10} {r.percentage:>15.2f}"
        for r in records
    ]
    return "\n".join([header] + rows)


def format_throughput_table(rows) -> str:
    """Plain-text table: Model | Platform | Throughput (frames/s)."""
    header = f"{'Model':<24} {'Platform':<12} {'Throughput (frames/s)':>22}"
    body = [f"{model:<24} {platform:<12} {fps:>22}" for model, platform, fps in rows]
    return "\n".join([header] + body)
