"""Binarized complex neural network engine.

Exact bit-packed XOR/popcount kernels for binary complex convolution,
full-precision complex layers, desk-scale STE training, surrogate
Lagrangian relaxation channel pruning, and a first-order accelerator
throughput model.
"""

from .binary_ops import (
    ConvGeometry,
    binarize_deterministic,
    binary_complex_conv2d,
    quadrant_binarize,
)
from .layers import (
    CgbnLayer,
    ComplexConvLayer,
    avg_pool,
    cgbn_forward,
    complex_conv2d_fp,
    fully_connected,
    max_pool,
    relu,
    spectral_pool,
)
from .models import (
    ModelGraph,
    build_complex_input_generator,
    build_nin_bcnn,
    build_resnet18_bcnn,
    build_toy_bcnn,
    forward,
)
from .tensors import BitplaneTensor, ComplexTensor, pack, unpack

__version__ = "0.1.0"
