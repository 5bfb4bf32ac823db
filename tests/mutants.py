"""Mutation catalogue: small wrong edits of the package that named tests must catch.

    PYTHONPATH=src python tests/mutants.py [--only NAME]

Each mutant is applied to a temporary copy of the tree (``src``, ``tests``
and ``pyproject.toml``), and its tests run there with ``PYTHONPATH=src``,
as the tier-1 command runs them.  One line per mutant reports it as
``killed`` (a named test failed), ``survived`` (every named test passed) or
``error`` (pytest could not run them, an unknown test id for instance).
The exit status is 1 unless every mutant was killed.

The file has no ``test_`` prefix, so pytest does not collect it: each
mutant copies the tree and starts a pytest of its own.  ``test_source.py``
checks, in tier-1, that every mutant's old text occurs exactly once in its
file, so a refactor that moves the code fails there and the catalogue is
updated instead of going stale.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple  # pytest ids; the mutant is killed if any of them fails


MODELS, SLR, BINARY_OPS = "src/bcnn/models.py", "src/bcnn/slr.py", "src/bcnn/binary_ops.py"
KEPT, STEP = "tests/test_kept_plan.py", "tests/test_conv_bn_step.py"

MUTANTS = [
    # the kept plan compares what it was planned from
    Mutant("plan_compares_values", MODELS,
           "value.tobytes() == kept.data",
           "np.array_equal(value, np.frombuffer(kept.data, kept.dtype).reshape(kept.shape))",
           (f"{KEPT}::test_a_signed_zero_flip_in_a_step_cgbn_plans_anew",)),
    Mutant("plan_compares_conv_planes_only", MODELS,
           "for node, name, kept in self.fields))",
           "for node, name, kept in self.fields\n"
           "                        if type(node) is BinaryConvLayer))",
           (f"{KEPT}::test_an_in_place_edit_after_a_packed_forward_reaches_the_next",)),
    Mutant("plan_keeps_references", MODELS,
           "_Copy(value.dtype, value.shape, value.tobytes())", "value",
           (f"{KEPT}::test_an_edit_through_a_view_taken_before_the_first_forward_reaches_the_next",
            f"{KEPT}::test_an_in_place_edit_after_a_packed_forward_reaches_the_next")),
    # the write check runs before a training step writes anything
    Mutant("run_nodes_skips_check_writeable", MODELS,
           "    elif mode is Mode.TRAIN_STEP:\n        check_writeable(nodes)\n",
           "    elif mode is Mode.TRAIN_STEP:\n        pass\n",
           (f"{KEPT}::test_a_training_step_on_one_read_only_array_writes_nothing",
            f"{KEPT}::test_a_refused_training_step_leaves_the_kept_plan_in_place")),
    # the skip of a sign-keeping CGBN
    Mutant("keeps_signs_at_most_zero_at_minus_one", MODELS,
           "np.all(p[..., 0] < 0)", "np.all(p[..., 0] <= 0)",
           (f"{STEP}::test_a_near_miss_of_a_sign_keeping_cgbn_takes_the_float_rule",
            f"{STEP}::test_a_seeded_sweep_of_near_sign_keeping_cgbns_gives_the_node_by_node_words")),
    Mutant("keeps_signs_above_zero_at_zero", MODELS,
           "np.all(p[..., 1] >= 0)", "np.all(p[..., 1] > 0)",
           (f"{STEP}::test_conv_bn_step_matches_node_by_node",
            f"{STEP}::test_a_seeded_sweep_of_near_sign_keeping_cgbns_gives_the_node_by_node_words")),
    Mutant("keeps_signs_ignores_gamma_im", MODELS,
           "    if np.any(bn.gamma_im):\n        return False\n", "",
           (f"{STEP}::test_one_complex_gamma_channel_sends_the_whole_layer_to_float_cgbn",
            f"{STEP}::test_a_near_miss_of_a_sign_keeping_cgbn_takes_the_float_rule")),
    # one loss per SLR iteration
    Mutant("slr_state_keeps_its_first_loss", SLR,
           "    state.loss = f_new\n", "",
           ("tests/test_training.py::test_seeded_train_and_slr_prune_are_golden",
            "tests/test_slr.py::test_an_slr_iteration_runs_one_loss_equal_to_a_fresh_one")),
    # packed == dense: the partial words of a dense row
    Mutant("dense_rows_shift_one_bit_short", BINARY_OPS,
           "np.arange(per, dtype=np.uint64) * np.uint64(rho)",
           "np.arange(per, dtype=np.uint64) * np.uint64(rho - 1)",
           ("tests/test_binary_ops.py::test_conv_matches_reference_at_word_boundaries",
            "tests/test_binary_ops.py::test_dense_rows_match_reference")),
    # BCN1: a bit the encoder never writes
    Mutant("bcn1_accepts_a_stray_weight_bit", MODELS,
           "        if np.any(words & ~valid):\n", "        if False:\n",
           ("tests/test_model_io.py::test_binary_conv_payload_the_encoder_never_writes_is_corrupt",)),
]


def _copy_tree(dest: Path):
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(verdict, pytest's last output line) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="bcnn-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            ["src", *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return verdict, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant named {args.only!r}")
    verdicts = []
    for mutant in chosen:
        start = time.perf_counter()
        verdict, last = run_mutant(mutant)
        verdicts.append(verdict)
        print(f"{verdict:8} {mutant.name}  ({time.perf_counter() - start:.0f} s: {last})",
              flush=True)
    print(f"{verdicts.count('killed')} of {len(verdicts)} mutants killed")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
