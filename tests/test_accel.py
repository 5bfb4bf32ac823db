import math

import pytest

from bcnn.accel import (
    GPU_BASELINE_FPS,
    KernelConfig,
    NIN_KERNEL_COUNT,
    NIN_KERNEL_LATENCY_S,
    NIN_U280_RESOURCES,
    REFERENCE_THROUGHPUT_ROWS,
    RESNET18_KERNEL_COUNT,
    RESNET18_KERNEL_LATENCY_S,
    RESNET18_U280_RESOURCES,
    ResourceRecord,
    conv_cycles,
    conv_stack,
    format_resource_table,
    format_throughput_table,
    speedup_report,
    stack_latency_s,
    throughput,
)
from bcnn.binary_ops import ConvGeometry
from bcnn.errors import InvalidConfig
from bcnn.models import build_nin_bcnn, build_resnet18_bcnn, iter_binary_convs


# ---------------------------------------------------------------------------
# cycle model
# ---------------------------------------------------------------------------

def test_conv_cycles_formula_example():
    # 1x1 kernel, in_c=64, out_c=1, p_out=p_in=1, 1x1 spatial, ii=1 -> 11
    g = ConvGeometry(64, 1, (1, 1))
    cfg = KernelConfig(p_out=1, p_in=1, ii=1, pipeline_fill=10)
    assert conv_cycles(g, (1, 1), cfg) == 11


def test_conv_cycles_p_out_halves_trips():
    g = ConvGeometry(64, 8, (3, 3), (1, 1), (1, 1))
    base = conv_cycles(g, (16, 16), KernelConfig(p_out=1, pipeline_fill=0))
    halved = conv_cycles(g, (16, 16), KernelConfig(p_out=2, pipeline_fill=0))
    assert base == 2 * halved


def test_conv_cycles_ceil_on_non_divisible():
    g = ConvGeometry(64, 6, (1, 1))
    cfg = KernelConfig(p_out=4, pipeline_fill=0)
    assert conv_cycles(g, (1, 1), cfg) == 2  # ceil(6/4) = 2


def test_conv_cycles_invariant_under_equal_ceiling_products():
    # swapping unroll between the two loop levels leaves cycles unchanged
    # whenever the product of trip-count ceilings is unchanged
    g = ConvGeometry(128, 64, (3, 3), (1, 1), (1, 1))  # 2 input words
    a = KernelConfig(p_out=2, p_in=1, pipeline_fill=10)
    b = KernelConfig(p_out=1, p_in=2, pipeline_fill=10)
    assert conv_cycles(g, (8, 8), a) == conv_cycles(g, (8, 8), b)


def test_nin_stack_calibrated_within_2x_of_measured_latency():
    model = build_nin_bcnn(seed=0)
    cfg = KernelConfig(p_out=8, p_in=1, ii=1, clock_hz=300e6)
    latency = stack_latency_s(model, cfg)
    assert latency <= 2.0 * NIN_KERNEL_LATENCY_S
    assert latency >= NIN_KERNEL_LATENCY_S / 2.0


def test_resnet18_stack_calibrated_within_2x_of_measured_latency():
    model = build_resnet18_bcnn(seed=0)
    cfg = KernelConfig(p_out=8, p_in=1, ii=1, clock_hz=300e6)
    latency = stack_latency_s(model, cfg)
    assert latency <= 2.0 * RESNET18_KERNEL_LATENCY_S
    assert latency >= RESNET18_KERNEL_LATENCY_S / 2.0


def test_resnet18_stack_includes_side_convs_at_block_input_size():
    model = build_resnet18_bcnn(seed=0)
    stack = conv_stack(model)
    assert len(list(iter_binary_convs(model))) == 19
    assert len(stack) == 20  # the full-precision stem plus every binary conv
    sides = [hw for g, hw in stack if g.kernel == (1, 1) and g.stride == (2, 2)]
    assert sides == [(32, 32), (16, 16), (8, 8)]


# (in_c, out_c, kernel, stride, padding, input hw) of every conv, captured
# before conv_stack derived from the node table's output shapes
CONV_STACK_GOLDEN = {
    "every-kind": [
        (3, 4, (3, 3), (1, 1), (1, 1), (16, 16)),
        (4, 4, (3, 3), (1, 1), (1, 1), (4, 4)),
        (4, 4, (3, 3), (1, 1), (1, 1), (4, 4)),
        (4, 4, (3, 3), (1, 1), (1, 1), (4, 4)),
        (4, 8, (3, 3), (2, 2), (1, 1), (4, 4)),
        (8, 8, (3, 3), (1, 1), (1, 1), (2, 2)),
        (4, 8, (1, 1), (2, 2), (0, 0), (4, 4)),
    ],
    "resnet18": [
        (3, 32, (3, 3), (1, 1), (1, 1), (32, 32)),
        (32, 32, (3, 3), (1, 1), (1, 1), (32, 32)),
        (32, 32, (3, 3), (1, 1), (1, 1), (32, 32)),
        (32, 32, (3, 3), (1, 1), (1, 1), (32, 32)),
        (32, 32, (3, 3), (1, 1), (1, 1), (32, 32)),
        (32, 64, (3, 3), (2, 2), (1, 1), (32, 32)),
        (64, 64, (3, 3), (1, 1), (1, 1), (16, 16)),
        (32, 64, (1, 1), (2, 2), (0, 0), (32, 32)),
        (64, 64, (3, 3), (1, 1), (1, 1), (16, 16)),
        (64, 64, (3, 3), (1, 1), (1, 1), (16, 16)),
        (64, 128, (3, 3), (2, 2), (1, 1), (16, 16)),
        (128, 128, (3, 3), (1, 1), (1, 1), (8, 8)),
        (64, 128, (1, 1), (2, 2), (0, 0), (16, 16)),
        (128, 128, (3, 3), (1, 1), (1, 1), (8, 8)),
        (128, 128, (3, 3), (1, 1), (1, 1), (8, 8)),
        (128, 256, (3, 3), (2, 2), (1, 1), (8, 8)),
        (256, 256, (3, 3), (1, 1), (1, 1), (4, 4)),
        (128, 256, (1, 1), (2, 2), (0, 0), (8, 8)),
        (256, 256, (3, 3), (1, 1), (1, 1), (4, 4)),
        (256, 256, (3, 3), (1, 1), (1, 1), (4, 4)),
    ],
}


@pytest.mark.parametrize("name", sorted(CONV_STACK_GOLDEN))
def test_conv_stack_matches_golden(name):
    from helpers import every_node_kind_model

    model = {"every-kind": every_node_kind_model, "resnet18": build_resnet18_bcnn}[name](seed=0)
    stack = [(g.in_channels, g.out_channels, g.kernel, g.stride, g.padding, hw)
             for g, hw in conv_stack(model)]
    assert stack == CONV_STACK_GOLDEN[name]


def test_conv_stack_tracks_spatial_sizes():
    model = build_nin_bcnn(seed=0)
    stack = conv_stack(model)
    assert stack[0][1] == (32, 32)
    assert stack[-1][1] == (8, 8)


# ---------------------------------------------------------------------------
# throughput arithmetic
# ---------------------------------------------------------------------------

def test_throughput_nin_reference():
    cfg = KernelConfig(kernel_count=NIN_KERNEL_COUNT,
                       kernel_latency_s=NIN_KERNEL_LATENCY_S)
    assert throughput(cfg) == 5882


def test_throughput_resnet18_reference():
    cfg = KernelConfig(kernel_count=RESNET18_KERNEL_COUNT,
                       kernel_latency_s=RESNET18_KERNEL_LATENCY_S)
    assert throughput(cfg) == 4938


def test_throughput_single_kernel_one_second():
    assert throughput(KernelConfig(kernel_count=1, kernel_latency_s=1.0)) == 1


def test_throughput_monotonicity():
    base = KernelConfig(kernel_count=4, kernel_latency_s=2e-3)
    more = KernelConfig(kernel_count=5, kernel_latency_s=2e-3)
    slower = KernelConfig(kernel_count=4, kernel_latency_s=3e-3)
    assert throughput(more) > throughput(base) > throughput(slower)


def test_speedup_reference_values():
    assert speedup_report(5882, GPU_BASELINE_FPS["nin"]) == 1.51
    assert speedup_report(4938, GPU_BASELINE_FPS["resnet18"]) == 1.58
    assert speedup_report(1234, 1234) == 1.00


def test_speedup_rejects_zero_baseline():
    with pytest.raises(InvalidConfig):
        speedup_report(100, 0)


@pytest.mark.parametrize("fpga_fps, baseline_fps", [
    (100, math.nan), (100, math.inf), (100, -math.inf),
    (math.nan, 100), (math.inf, 100), (-1, 100),
])
def test_speedup_rejects_non_finite_and_negative_throughputs(fpga_fps, baseline_fps):
    with pytest.raises(InvalidConfig):
        speedup_report(fpga_fps, baseline_fps)


def test_a_fractional_pipeline_fill_raises_invalid_config_naming_it():
    # it was accepted, and conv_cycles then counted fractional cycles
    with pytest.raises(InvalidConfig, match="pipeline_fill must be an integer, got 2.5"):
        KernelConfig(pipeline_fill=2.5)


# ---------------------------------------------------------------------------
# resource reports
# ---------------------------------------------------------------------------

def test_resource_percentages_match_reference_tables():
    expected_nin = {"DSP": 6.37, "FF": 3.41, "LUT": 10.54}
    for rec in NIN_U280_RESOURCES:
        assert abs(rec.percentage - expected_nin[rec.name]) < 0.01
    expected_resnet = {"DSP": 5.15, "FF": 4.31, "LUT": 12.37}
    for rec in RESNET18_U280_RESOURCES:
        assert abs(rec.percentage - expected_resnet[rec.name]) < 0.01


def test_resource_record_validation():
    with pytest.raises(InvalidConfig):
        ResourceRecord("LUT", 10, 5)


def test_resource_table_format_roundtrip():
    out = format_resource_table(NIN_U280_RESOURCES)
    lines = out.splitlines()
    assert "Resource" in lines[0] and "percentage" in lines[0]
    assert "137387" in out and "1303680" in out and "10.54" in out


def test_throughput_table_format():
    out = format_throughput_table(REFERENCE_THROUGHPUT_ROWS)
    assert "5882" in out and "4938" in out
    assert "Alveo U280" in out and "RTX 6000" in out


def test_kernel_config_validation():
    with pytest.raises(InvalidConfig):
        KernelConfig(p_out=0)
    with pytest.raises(InvalidConfig):
        KernelConfig(kernel_latency_s=-1.0)
    with pytest.raises(InvalidConfig):
        throughput(KernelConfig())  # latency unset


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p_out", "p_in", "ii", "kernel_count", "clock_hz",
                                   "pipeline_fill", "kernel_latency_s"])
def test_kernel_config_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidConfig):
        KernelConfig(**{field: value})
