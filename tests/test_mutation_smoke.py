"""A handful of fixed mutants, each killed by the one reference test
written for it.

Once a planned re-pin retakes the training pins, only tests against an
independent reference witness the update half of ``train_step``, the
cross-view pairing, Adam's weight decay and the reported head loss.
Each mutant below comes from ``tests/mutation.py``'s operator families
and is picked by a snippet of the source it writes.  It is run in a copy
of the tree, against only the test meant to kill it, which must fail
(pytest's exit 1: collected, ran, failed); the unmutated copy passes
every one of those tests.
"""

import os
import subprocess
import sys

import pytest

from mutation import (PACKAGE, ROOT, copy_tree, enumerate_mutants,
                      mutated_source)

# name: (target, family, snippet of the mutated source, killing test)
MUTANTS = {
    "ema-update": (
        "ssl.train_step", "augswap",
        "state.teacher[k] -= (1 - m) * state.student[k]",
        "test_ssl.py::TestStepUpdate::test_teacher_is_the_momentum_mean"),
    "center-update": (
        "ssl.train_step", "drop",
        "state.cls_center = cm * state.cls_center\n",
        "test_ssl.py::TestStepUpdate::"
        "test_centers_follow_the_teacher_logit_means"),
    "dino-pairing": (
        "ssl.train_step", "unary", "[:, ::1]",
        "test_ssl.py::TestStepUpdate::"
        "test_dino_pairs_teacher_view_a_with_student_view_b"),
    "weight-decay-sign": (
        "optim.adam_step", "swap",
        "step = step - cfg.weight_decay * params[name]",
        "test_optim.py::TestAdam::"
        "test_decoupled_decay_shrinks_without_gradient"),
    "head-loss-floor": (
        "heads.head_gradients", "double", "2e-12",
        "test_heads.py::TestGradients::"
        "test_reported_loss_is_floored_cross_entropy"),
}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    return copy_tree(ROOT, tmp_path_factory.mktemp("mutant"))


def run_pytest(tree, tests):
    """pytest's exit code and output on ``tests`` in ``tree``, importing
    the package from ``tree`` alone."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[f"tests/{test}" for test in tests]],
        cwd=tree, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    return done.returncode, done.stdout[-2000:]


def test_unmutated_copy_passes_every_killing_test(tree):
    code, out = run_pytest(tree, [test for *_, test in MUTANTS.values()])
    assert code == 0, out


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_fixed_mutant_is_killed(tree, name):
    target, family, snippet, test = MUTANTS[name]
    sources = [mutated_source(ROOT, m)
               for m in enumerate_mutants(ROOT, [target])
               if m.family == family]
    source, = [s for s in sources if snippet in s]
    path = tree / PACKAGE / f"{target.split('.')[0]}.py"
    original = path.read_text("utf-8")
    path.write_text(source, "utf-8")
    try:
        code, out = run_pytest(tree, [test])
    finally:
        path.write_text(original, "utf-8")
    assert code == 1, out
