"""Minimal Adam with optional decoupled weight decay.

Operates on name -> ndarray parameter dicts; updates are in place so
callers keep a single parameter identity across steps.  Decay is
decoupled (applied directly to the weights, not through the gradient),
and skipped for entries listed in ``no_decay``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


def adam_init(params: dict) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params: dict, grads: dict, state: dict, cfg: AdamConfig,
              no_decay=()) -> None:
    """One update over every key in grads; params mutate in place."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        m = state["m"][name]
        v = state["v"][name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        step = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if cfg.weight_decay and name not in no_decay:
            step = step + cfg.weight_decay * params[name]
        params[name] -= cfg.lr * step
