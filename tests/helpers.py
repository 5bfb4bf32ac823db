"""Shared test oracles: dense reference implementations kept independent of
the packed kernels they check."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from bcnn.layers import _col2im
from bcnn.tensors import ComplexTensor


def im2col(x, kernel, stride, padding, pad_value=0.0):
    """Gather sliding windows into a (n, c*kh*kw, h_out*w_out) matrix: the
    whole-batch columns, which the engine's convolutions never build.
    Returns (cols, (h_out, w_out))."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    n, c, h_out, w_out = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3), dtype=float)
    return cols.reshape(n, c * kh * kw, h_out * w_out), (h_out, w_out)


def assert_close_relative(y, ref, rel=1e-12):
    """Shapes equal and every entry within ``rel`` of the reference's largest
    magnitude: the check for a reordered floating-point sum."""
    assert y.shape == ref.shape
    assert np.abs(y - ref).max() <= rel * np.abs(ref).max()


def random_pm1_tensor(rng, shape) -> ComplexTensor:
    return ComplexTensor(
        np.where(rng.random(shape) > 0.5, 1.0, -1.0),
        np.where(rng.random(shape) > 0.5, 1.0, -1.0),
    )


def unrolled_binary_conv(x: ComplexTensor, w: ComplexTensor, stride, padding, p_out, p_in):
    """The binary conv of {+1,-1} planes split into the trips that
    ``accel.conv_cycles`` counts for unroll factors ``(p_out, p_in)``: each
    trip takes ``p_out`` output channels and ``p_in`` 64-channel words of
    each input plane, and is one packed ``binary_complex_conv2d``.  The
    input blocks' dots are summed and the output groups concatenated."""
    from bcnn.binary_ops import ConvGeometry, binary_complex_conv2d
    from bcnn.tensors import WORD_BITS, pack

    oc, ic, kh, kw = w.shape
    block = WORD_BITS * p_in
    groups = []
    for o in range(0, oc, p_out):
        y_re = y_im = 0.0
        for c in range(0, ic, block):
            xs = ComplexTensor(x.re[:, c:c + block], x.im[:, c:c + block])
            ws = ComplexTensor(w.re[o:o + p_out, c:c + block], w.im[o:o + p_out, c:c + block])
            g = ConvGeometry(xs.shape[1], ws.shape[0], (kh, kw), stride, padding)
            y = binary_complex_conv2d(pack(xs), pack(ws), g)
            y_re, y_im = y_re + y.re, y_im + y.im
        groups.append((y_re, y_im))
    return ComplexTensor(np.concatenate([re for re, _ in groups], axis=1),
                         np.concatenate([im for _, im in groups], axis=1))


def reference_pack_plane(plane) -> np.ndarray:
    """Pack one {+1,-1} NCHW plane bit by bit: bit j of word k is channel
    64*k + j, set for +1.  Deliberately written as an explicit bit loop."""
    n, c, h, w = plane.shape
    words = np.zeros((n, h, w, -(-c // 64)), dtype=np.uint64)
    for ch in range(c):
        bit = np.uint64(1) << np.uint64(ch % 64)
        words[..., ch // 64] |= np.where(plane[:, ch] > 0, bit, np.uint64(0))
    return words


def reference_complex_conv2d(x: ComplexTensor, w: ComplexTensor, stride, padding,
                             pad_value=-1.0):
    """Sliding-window complex convolution on dense planes.

    Padding uses ``pad_value`` on both planes (-1 matches the binary
    kernel's alphabet).  Deliberately written as an explicit window loop.
    """
    n, ic, h, wd = x.shape
    oc, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    pads = ((0, 0), (0, 0), (ph, ph), (pw, pw))
    xr = np.pad(x.re, pads, constant_values=pad_value)
    xi = np.pad(x.im, pads, constant_values=pad_value)
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    y_r = np.zeros((n, oc, h_out, w_out))
    y_i = np.zeros((n, oc, h_out, w_out))
    for oy in range(h_out):
        for ox in range(w_out):
            pr = xr[:, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw]
            pi = xi[:, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw]
            y_r[:, :, oy, ox] = (np.einsum("nckl,ockl->no", pr, w.re)
                                 - np.einsum("nckl,ockl->no", pi, w.im))
            y_i[:, :, oy, ox] = (np.einsum("nckl,ockl->no", pr, w.im)
                                 + np.einsum("nckl,ockl->no", pi, w.re))
    return ComplexTensor(y_r, y_i)


def random_conv_case(rng, max_channels=128):
    """One random binary convolution case (inputs, weights, geometry params)."""
    ic = int(rng.integers(1, max_channels + 1))
    oc = int(rng.integers(1, 17))
    k = int(rng.choice([1, 3]))
    s = int(rng.choice([1, 2]))
    p = int(rng.choice([0, 1]))
    h = int(rng.integers(k + s, 9))
    n = int(rng.integers(1, 3))
    x = random_pm1_tensor(rng, (n, ic, h, h))
    w = random_pm1_tensor(rng, (oc, ic, k, k))
    return x, w, (k, k), (s, s), (p, p)


def einsum_conv2d_real(x, w, stride=(1, 1), padding=(0, 0), pad_value=0.0):
    """Real 2D cross-correlation as one plain einsum over strided windows.

    The pre-GEMM formula of the full-precision convs: einsum without
    ``optimize`` never calls BLAS, so it sums in its own order.
    """
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    win = sliding_window_view(xp, w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]
    return np.einsum("nchwij,ocij->nohw", win, np.asarray(w, dtype=float))


def einsum_complex_conv2d(x: ComplexTensor, layer) -> ComplexTensor:
    """Four-einsum complex convolution of a ComplexConvLayer, bias included."""
    g = layer.geometry

    def conv(plane, w):
        return einsum_conv2d_real(plane, w, g.stride, g.padding, layer.pad_value)

    y_r = conv(x.re, layer.w_re) - conv(x.im, layer.w_im)
    y_i = conv(x.re, layer.w_im) + conv(x.im, layer.w_re)
    if layer.bias_re is not None:
        y_r = y_r + layer.bias_re.reshape(1, -1, 1, 1)
        y_i = y_i + layer.bias_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i)


def reference_cgbn_eval(x: ComplexTensor, layer) -> ComplexTensor:
    """Eval-mode CGBN written as whole-array expressions, one temporary per
    operation, in the order the layer documents."""
    def per_channel(v):
        return np.asarray(v, dtype=float).reshape(1, -1, 1, 1)

    inv_r = 1.0 / np.sqrt(2.0 * per_channel(layer.running_var_re) + layer.eps)
    inv_i = 1.0 / np.sqrt(2.0 * per_channel(layer.running_var_im) + layer.eps)
    xh_r = (x.re - per_channel(layer.running_mean_re)) * inv_r
    xh_i = (x.im - per_channel(layer.running_mean_im)) * inv_i
    g_r = per_channel(layer.gamma_re)
    g_i = per_channel(layer.gamma_im)
    y_r = g_r * xh_r - g_i * xh_i + per_channel(layer.beta_re)
    y_i = g_r * xh_i + g_i * xh_r + per_channel(layer.beta_im)
    return ComplexTensor(y_r, y_i)


# ---------------------------------------------------------------------------
# training conv forward/backward: the pre-GEMM einsum formulas
# ---------------------------------------------------------------------------

def einsum_complex_conv_fwd(x: ComplexTensor, layer):
    """Training-mode complex conv forward as four plain einsums over im2col
    columns.  Returns (y, (cols_r, cols_i, x_shape))."""
    g = layer.geometry
    n = x.shape[0]
    out_c = layer.w_re.shape[0]
    cols_r, (h_out, w_out) = im2col(x.re, g.kernel, g.stride, g.padding, layer.pad_value)
    cols_i, _ = im2col(x.im, g.kernel, g.stride, g.padding, layer.pad_value)
    mat_r = layer.w_re.reshape(out_c, -1).astype(float)
    mat_i = layer.w_im.reshape(out_c, -1).astype(float)
    y_r = (np.einsum("ok,nkl->nol", mat_r, cols_r)
           - np.einsum("ok,nkl->nol", mat_i, cols_i)).reshape(n, out_c, h_out, w_out)
    y_i = (np.einsum("ok,nkl->nol", mat_i, cols_r)
           + np.einsum("ok,nkl->nol", mat_r, cols_i)).reshape(n, out_c, h_out, w_out)
    if layer.bias_re is not None:
        y_r = y_r + layer.bias_re.reshape(1, -1, 1, 1)
        y_i = y_i + layer.bias_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i), (cols_r, cols_i, x.shape)


def einsum_complex_conv_bwd(g: ComplexTensor, cache, layer):
    """Einsum backward of ``einsum_complex_conv_fwd``:
    (dw_re, dw_im, db_re, db_im, dx)."""
    cols_r, cols_i, x_shape = cache
    geo = layer.geometry
    n = x_shape[0]
    out_c = layer.w_re.shape[0]
    gr = g.re.reshape(n, out_c, -1)
    gi = g.im.reshape(n, out_c, -1)
    dw_re = (np.einsum("nol,nkl->ok", gr, cols_r)
             + np.einsum("nol,nkl->ok", gi, cols_i)).reshape(layer.w_re.shape)
    dw_im = (np.einsum("nol,nkl->ok", gi, cols_r)
             - np.einsum("nol,nkl->ok", gr, cols_i)).reshape(layer.w_im.shape)
    db_re = db_im = None
    if layer.bias_re is not None:
        db_re = g.re.sum(axis=(0, 2, 3))
        db_im = g.im.sum(axis=(0, 2, 3))
    mat_r = layer.w_re.reshape(out_c, -1).astype(float)
    mat_i = layer.w_im.reshape(out_c, -1).astype(float)
    dcols_r = np.einsum("ok,nol->nkl", mat_r, gr) + np.einsum("ok,nol->nkl", mat_i, gi)
    dcols_i = np.einsum("ok,nol->nkl", mat_r, gi) - np.einsum("ok,nol->nkl", mat_i, gr)
    dx_r = _col2im(dcols_r, x_shape, geo.kernel, geo.stride, geo.padding)
    dx_i = _col2im(dcols_i, x_shape, geo.kernel, geo.stride, geo.padding)
    return dw_re, dw_im, db_re, db_im, ComplexTensor(dx_r, dx_i)


def einsum_real_conv_fwd(x, w, stride, padding, pad_value):
    """Real conv forward as one plain einsum over im2col columns: (y, cols)."""
    cols, (h_out, w_out) = im2col(x, w.shape[2:], stride, padding, pad_value)
    y = np.einsum("ok,nkl->nol", w.reshape(w.shape[0], -1).astype(float), cols)
    return y.reshape(x.shape[0], w.shape[0], h_out, w_out), cols


def einsum_real_conv_bwd(g, cols, x_shape, w, stride, padding):
    """Einsum backward of ``einsum_real_conv_fwd``: (dw, dx)."""
    n, out_c = g.shape[:2]
    gm = g.reshape(n, out_c, -1)
    dw = np.einsum("nol,nkl->ok", gm, cols).reshape(w.shape)
    dcols = np.einsum("ok,nol->nkl", w.reshape(out_c, -1).astype(float), gm)
    dx = _col2im(dcols, x_shape, w.shape[2:], stride, padding)
    return dw, dx


def batch_gemm_real_conv(x, w, g, stride, padding, pad_value):
    """The whole-batch GEMM formulation of the real conv and its backward:
    (y, dw, dx) from one (n, c*kh*kw, h_out*w_out) im2col matrix, one
    stacked ``np.matmul`` per product, ``dw`` summed image by image in
    order and ``dx`` through one whole-batch ``_col2im``."""
    n, out_c = g.shape[:2]
    cols, (h_out, w_out) = im2col(x, w.shape[2:], stride, padding, pad_value)
    wm = w.reshape(out_c, -1).astype(float)
    y = np.matmul(wm, cols).reshape(n, out_c, h_out, w_out)
    gm = g.reshape(n, out_c, -1)
    dw = gm[0] @ cols[0].T
    for i in range(1, n):
        dw += gm[i] @ cols[i].T
    dx = _col2im(np.matmul(wm.T, gm), x.shape, w.shape[2:], stride, padding)
    return y, dw.reshape(w.shape), dx


def every_node_kind_model(seed=0):
    """One graph holding every node kind BCN1 stores, in a trainable order:
    the kinds the model builders make."""
    from bcnn.layers import CgbnLayer
    from bcnn.models import (AvgPool, Binarize, Flatten, MaxPool, ModelGraph,
                             build_complex_input_generator, validate_graph, _block1, _block2,
                             _init_binary_conv, _init_complex_conv, _init_dense)

    rng = np.random.default_rng(seed)
    layers = [
        build_complex_input_generator(3, seed=seed),
        _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(4),
        AvgPool((2, 2)),  # 16 -> 8
        MaxPool((2, 2)),  # 8 -> 4
        Binarize(),
        _init_binary_conv(rng, 4, 4, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(4),
        _block1(rng, 4),
        _block2(rng, 4, 8),  # 4 -> 2
        AvgPool((2, 2)),  # 2 -> 1
        CgbnLayer.identity(8),
        Flatten(),
        _init_dense(rng, 2 * 8, 2),
    ]
    model = ModelGraph("every-kind", (3, 16, 16), 2, layers)
    validate_graph(model)
    return model


def perturb_cgbn(model, rng):
    """Move every CGBN of ``model`` (block paths included) off identity:
    running statistics, gamma of both signs, beta, and a complex gamma on
    about a quarter of the channels (gamma_im stays exactly 0 elsewhere)."""
    from bcnn.layers import CgbnLayer
    from bcnn.models import graph_nodes

    for node, _ in graph_nodes(model):
        if isinstance(node, CgbnLayer):
            c = node.channels
            node.running_mean_re[:] = rng.standard_normal(c) * 4
            node.running_mean_im[:] = rng.standard_normal(c) * 4
            node.running_var_re[:] = rng.uniform(0.2, 30.0, c)
            node.running_var_im[:] = rng.uniform(0.2, 30.0, c)
            node.gamma_re[:] = rng.standard_normal(c)
            node.gamma_im[:] = np.where(rng.random(c) < 0.25, rng.standard_normal(c), 0.0)
            node.beta_re[:] = rng.standard_normal(c)
            node.beta_im[:] = rng.standard_normal(c)
    return model


def real_gamma_cgbn(model, rng):
    """``perturb_cgbn`` with every gamma real, so each layer can fold."""
    from bcnn.layers import CgbnLayer
    from bcnn.models import graph_nodes

    perturb_cgbn(model, rng)
    for node, _ in graph_nodes(model):
        if isinstance(node, CgbnLayer):
            node.gamma_im[:] = 0.0
    return model


# how a test moves a model's CGBNs: (model, rng) -> model
CGBN_KINDS = {
    "identity": lambda model, rng: model,
    "real_gamma": real_gamma_cgbn,
    "complex_gamma": perturb_cgbn,
}


def cut_convs(model) -> int:
    """How many binary convs the packed forward's plan cuts to their live
    input channels."""
    from bcnn.models import Activation, _ConvStep, _PlannedBlock, _plan

    def cut(steps):
        return sum(cut(s.main) + cut(s.side) if type(s) is _PlannedBlock
                   else type(s) is _ConvStep and s.bias is not None for s in steps)

    return cut(_plan(model.layers, Activation(tuple(model.input_shape))))


def hard_prune(model, ratio):
    """Project every binary conv of ``model`` onto its largest-norm output
    channels, ``slr.budgets_from_ratio(model, ratio)`` of them per layer."""
    from bcnn.models import iter_binary_convs
    from bcnn.slr import budgets_from_ratio, project_channels

    for layer, budget in zip(iter_binary_convs(model), budgets_from_ratio(model, ratio)):
        z = project_channels(np.stack([layer.w_re, layer.w_im]), budget, channel_axis=1)
        layer.w_re[...] = z[0]
        layer.w_im[...] = z[1]
    return model


def tracemalloc_peak_mib(run) -> float:
    """The tracemalloc peak of a second ``run()``, in MiB: first-call
    allocations (BLAS buffers, caches) stay out of it."""
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
