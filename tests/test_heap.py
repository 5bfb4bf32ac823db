"""The engine keeps the heap it frees (``bcnn.workers.keep_freed_heap``).

Each test runs in a fresh Python process: the C library's thresholds are
set once per process, and heap that earlier tests freed would hide the
faults a step takes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _libc_mallopt():
    import ctypes
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


needs_mallopt = pytest.mark.skipif(
    _libc_mallopt() is None, reason="the C library exports no mallopt: the engine leaves "
                                    "its heap to the C library's defaults")


def _run_fresh(code: str):
    """Run ``code`` in a new interpreter with one BLAS thread; it prints one
    JSON value, returned here."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


FAULTS = """
import json, resource
import numpy as np
from bcnn.models import build_nin_bcnn, build_toy_bcnn, forward
from bcnn.training import train_step
import bcnn.workers as workers

workers.os.sched_getaffinity = lambda pid: {0, 1}  # two cores on any host

def faults(run, count):
    for _ in range(2):  # warm-up: the first calls fault in what they keep
        run()
    out = []
    for _ in range(count):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

rng = np.random.default_rng(0)
toy = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8), seed=0)
x, y = rng.random((32, 3, 32, 32)), np.arange(32) % 10
steps = faults(lambda: train_step(toy, x, y, lr=0.01, clip=1.0), 5)
nin = build_nin_bcnn(seed=0)
image = rng.random((1, 3, 32, 32))
forwards = faults(lambda: forward(nin, image), 50)
print(json.dumps({"kept": workers.keep_freed_heap(), "steps": steps, "forwards": forwards}))
"""


@needs_mallopt
def test_a_steady_step_or_forward_faults_in_no_fresh_pages():
    # without the thresholds a toy step took about 10 300 minor faults and a
    # batch-1 NIN forward about 1 120 (2-core Xeon, glibc 2.36): glibc
    # returned the freed heap to the kernel after each call
    got = _run_fresh(FAULTS)
    assert got["kept"]
    assert max(got["steps"]) < 100, got["steps"]
    assert max(got["forwards"]) < 20, got["forwards"]


# Records every mallopt call the engine makes; numpy is imported first, so
# only bcnn's own imports and calls run with the recorder in place.
RECORDER = """
import ctypes, json, sys, threading
import numpy as np
calls = []
real_cdll, real = ctypes.CDLL, ctypes.CDLL(None).mallopt
real.argtypes, real.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int

class Mallopt:
    def __call__(self, param, value):
        calls.append([param, value, real(param, value)])
        return calls[-1][-1]

class Libc:
    mallopt = Mallopt()

ctypes.CDLL = lambda name, *args, **kwargs: (
    Libc() if name is None else real_cdll(name, *args, **kwargs))

def concurrently(run, threads=4):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    callers = [threading.Thread(target=run) for _ in range(threads)]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)

import bcnn
from bcnn.model_io import load_model, save_model
from bcnn.models import build_toy_bcnn, forward
from bcnn.training import Dataset, batch_loss, evaluate, train_step
import tempfile, os
"""

SET = [[-3, 32 << 20, 1], [-1, 128 << 20, 1]]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


@needs_mallopt
def test_the_thresholds_are_set_at_the_first_engine_call_and_never_again():
    # set at import they moved a program's own arrays, allocated after
    # ``import bcnn``, onto the heap: the benchmark's host-speed reference
    # ran 6-8% slower (2-core Xeon)
    got = _run_fresh(RECORDER + """
phases = {}
model = build_toy_bcnn(input_shape=(3, 8, 8), num_classes=2, channels=(4, 4), seed=0)
path = os.path.join(tempfile.mkdtemp(), "m.bcn")
save_model(model, path)
model = load_model(path)
phases["import, build, round trip"] = list(calls)
x, y = np.random.default_rng(0).random((6, 3, 8, 8)), np.arange(6) % 2
forward(model, x)
phases["first forward"] = list(calls)
forward(model, x)
train_step(model, x, y, lr=0.01, clip=1.0)
batch_loss(model, x, y)
evaluate(model, Dataset(x, y, 2))
concurrently(lambda: [forward(model, x) for _ in range(3)])
phases["later calls"] = list(calls)
print(json.dumps(phases))
""")
    assert got == {"import, build, round trip": [], "first forward": SET,
                   "later calls": SET}


@needs_mallopt
def test_concurrent_first_calls_set_the_thresholds_once():
    got = _run_fresh(RECORDER + """
model = build_toy_bcnn(input_shape=(3, 8, 8), num_classes=2, channels=(4, 4), seed=0)
x = np.random.default_rng(0).random((2, 3, 8, 8))
concurrently(lambda: forward(model, x), threads=8)
print(json.dumps(calls))
""")
    assert got == SET
