"""Mutation score of the non-pin tests over the gradient and update code.

Usage, from the repository root (standard library only; pytest must be
importable by the interpreter that runs it):

    python3 tests/mutation.py                     # the default targets
    python3 tests/mutation.py ssl.train_step optim.adam_step

Each mutant changes one site of one target function, by one of five
operator families:

- ``swap``: ``+`` <-> ``-`` and ``*`` <-> ``/`` in a binary operation
- ``drop``: the right operand of a ``+`` or ``-`` removed
- ``augswap``: ``+=`` <-> ``-=``
- ``unary``: a unary minus removed
- ``double``: a float constant doubled

Every mutant runs the non-pin test subset (``TEST_FILES`` with
``-k "not golden and not pinned"``, stopping at the first failure) in
one copy of the tree, one mutant after another, never in the tree
itself: pytest's ``pythonpath =
["src"]`` in ``pyproject.toml`` would otherwise import the unmutated
package.  A failing run (or one past its time limit) kills the mutant.
The script prints every survivor and the score, and exits 1 when the
unmutated tree already fails the subset.  It is not collected by
pytest, so it never runs in tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "tokenhier"

# The gradient and update code whose correctness, once a planned re-pin
# retakes the training pins, only the non-pin tests witness.
TARGETS = (
    "encoder.backward_batch", "encoder.token_gradients",
    "heads.head_gradients", "heads._project_grad", "heads._pool_batch",
    "ssl.centered_ce_loss_grad", "ssl.koleo_loss_grad",
    "ssl.gram_loss_grad", "ssl.head_backward", "ssl.train_step",
    "numkernel.layer_norm_backward", "numkernel.softmax_backward",
    "numkernel.gelu_grad", "optim.adam_step",
)
TEST_FILES = ("encoder", "heads", "ssl", "gradcheck", "numkernel", "optim")
NOT_PINS = "not golden and not pinned"

_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


@dataclass(frozen=True)
class Mutant:
    target: str        # module.function
    index: int         # the site's position in ``sites``' order
    family: str
    line: int
    what: str

    def describe(self) -> str:
        module = self.target.split(".")[0]
        return f"{module}.py:{self.line} {self.target} [{self.family}] {self.what}"


def _function(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no top-level function {name!r}")


def sites(function: ast.FunctionDef):
    """(node, family, description) of every mutation site, in
    ``ast.walk`` order, which is fixed for a given source."""
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            op = type(node.op)
            yield node, "swap", f"{_SYMBOL[op]} -> {_SYMBOL[_SWAP[op]]}"
            if op in (ast.Add, ast.Sub):
                yield node, "drop", f"{_SYMBOL[op]} {ast.unparse(node.right)} dropped"
        elif (isinstance(node, ast.AugAssign)
              and type(node.op) in (ast.Add, ast.Sub)):
            op = type(node.op)
            yield node, "augswap", f"{_SYMBOL[op]}= -> {_SYMBOL[_SWAP[op]]}="
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "unary", f"-{ast.unparse(node.operand)} -> {ast.unparse(node.operand)}"
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value != 0.0):
            yield node, "double", f"{node.value!r} -> {2 * node.value!r}"


class _Apply(ast.NodeTransformer):
    """Rewrites the one node ``site`` of a parsed module."""

    def __init__(self, site, family):
        self.site, self.family = site, family

    def visit(self, node):
        if node is not self.site:
            return self.generic_visit(node)
        if self.family in ("swap", "augswap"):
            node.op = _SWAP[type(node.op)]()
        elif self.family == "drop":
            return node.left
        elif self.family == "unary":
            return node.operand
        else:
            node.value *= 2
        return node


def enumerate_mutants(root: Path, targets) -> list:
    mutants = []
    for target in targets:
        module, name = target.split(".")
        tree = ast.parse((root / PACKAGE / f"{module}.py").read_text("utf-8"))
        for i, (node, family, what) in enumerate(sites(_function(tree, name))):
            mutants.append(Mutant(target, i, family, node.lineno, what))
    return mutants


def mutated_source(root: Path, mutant: Mutant) -> str:
    module, name = mutant.target.split(".")
    tree = ast.parse((root / PACKAGE / f"{module}.py").read_text("utf-8"))
    node, family, _ = list(sites(_function(tree, name)))[mutant.index]
    return ast.unparse(ast.fix_missing_locations(
        _Apply(node, family).visit(tree)))


def run_tests(tree: Path, first: str, timeout: float):
    """(passed, seconds) of the non-pin subset in ``tree``, ``first``'s
    own test file first; a run past ``timeout`` counts as failed."""
    files = sorted(TEST_FILES, key=lambda f: f != first)
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
            "no:cacheprovider", "-k", NOT_PINS,
            *[f"tests/test_{f}.py" for f in files]]
    # no bytecode cache: two mutants of one size written within one
    # second of each other would otherwise share a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=tree, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - t0
    return done.returncode == 0, time.perf_counter() - t0


def copy_tree(root: Path, dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(root / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(root / "pyproject.toml", dest / "pyproject.toml")
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="*", default=list(TARGETS),
                        help="module.function names (default: TARGETS)")
    args = parser.parse_args(argv)
    mutants = enumerate_mutants(ROOT, args.targets)

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        tree = copy_tree(ROOT, Path(tmp))
        ok, base_s = run_tests(tree, "", timeout=None)
        if not ok:
            print("the unmutated tree fails the non-pin subset",
                  file=sys.stderr)
            return 1
        print(f"unmutated subset: passed in {base_s:.1f} s; "
              f"{len(mutants)} mutants", flush=True)

        for k, mutant in enumerate(mutants, 1):
            module = mutant.target.split(".")[0]
            path = tree / PACKAGE / f"{module}.py"
            original = path.read_text("utf-8")
            path.write_text(mutated_source(ROOT, mutant), "utf-8")
            passed, _ = run_tests(tree, module, timeout=5 * base_s + 30)
            path.write_text(original, "utf-8")
            if passed:
                survivors.append(mutant)
            print(f"[{k}/{len(mutants)}] "
                  f"{'SURVIVED' if passed else 'killed  '} "
                  f"{mutant.describe()}", flush=True)

    killed = len(mutants) - len(survivors)
    print(f"\nsurvivors ({len(survivors)}):")
    for m in survivors:
        print(f"  {m.describe()}")
    print(f"score: {killed} of {len(mutants)} killed "
          f"({100.0 * killed / max(1, len(mutants)):.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
