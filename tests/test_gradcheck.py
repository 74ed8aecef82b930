"""Pins of the finite-difference harness: the reported numbers and the
failure path of every component."""

import numpy as np
import pytest

from tokenhier import gradcheck
from tokenhier.cli import main
from tokenhier.gradcheck import run_all

# Worst sampled relative errors at the first verified build.  Exact
# equality: every instance is drawn from fixed RNG streams, so any
# change to an instance, its sampling or the numerics moves a value.
WORST_REL_ERR = {
    "encoder.embedding": 4.554227781256432e-10,
    "encoder.blocks": 2.484383432481713e-05,
    "ssl.dino": 6.168784398060478e-05,
    "ssl.ibot": 1.3257387588244567e-05,
    "ssl.koleo": 2.531954597175947e-09,
    "ssl.gram": 7.289341799013376e-09,
    "heads.linear": 1.733989832665543e-09,
    "heads.attnpool": 2.2902475636971524e-08,
}


def test_worst_errors_pinned():
    results = run_all()
    assert [r.component for r in results] == list(WORST_REL_ERR)
    assert {r.component: r.worst_rel_err for r in results} == WORST_REL_ERR


def inject_fault(monkeypatch, component):
    """Wrap the component's builder so entry 0 of its first gradient by
    name is off by 1.0; the harness always samples entry 0."""
    build = gradcheck._COMPONENTS[component]

    def faulty():
        loss, grads, tensors, streams = build()
        name = sorted(grads)[0]
        bad = np.array(grads[name], dtype=np.float64)
        bad.reshape(-1)[0] += 1.0
        return loss, {**grads, name: bad}, tensors, streams

    monkeypatch.setitem(gradcheck._COMPONENTS, component, faulty)


@pytest.mark.parametrize("component", list(WORST_REL_ERR))
def test_fault_injection_names_only_that_component(component, monkeypatch,
                                                   capsys):
    inject_fault(monkeypatch, component)
    assert main(["gradcheck"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"gradient check failed: {component}"
    failing = [line.split()[0] for line in captured.out.splitlines()
               if line.endswith("FAIL")]
    assert failing == [component]
