"""The c4 token suite: synthetic token sequences with the label planted
in one patch token, built on fixed RNG streams so the c4 numbers hold.

Tests import it as ``from token_suite import make_token_suite``; pytest
puts this directory on ``sys.path``.
"""

from tokenhier.encoder import TokenSequence
from tokenhier.errors import ConfigError
from tokenhier.numkernel import RngStream


def make_token_suite(rng: RngStream, embed_dim: int = 64,
                     patch_count: int = 16, per_class_train: int = 128,
                     per_class_val: int = 512, signal_index: int = 3,
                     amplitude: float = 20.0, beacon: float = 10.0):
    """Token-level local-signal benchmark, isolating head behavior from
    the encoder: the class token is pure noise, and the label lives in
    one fixed patch token (a class-independent beacon on dim 0 plus a
    signed class component on dim 1).  A class-token probe can only hit
    chance; pooling over patch tokens can recover the label."""
    if not 0 <= signal_index < patch_count:
        raise ConfigError("signal_index outside the token range")

    def build(n_per_class, tag):
        items = []
        for c in (0, 1):
            for j in range(n_per_class):
                r = rng.derive(tag, c, j)
                cls_tok = r.gaussian(embed_dim)
                patches = r.gaussian(patch_count * embed_dim).reshape(
                    patch_count, embed_dim)
                patches[signal_index, 0] += beacon
                patches[signal_index, 1] += amplitude if c == 0 else -amplitude
                items.append((TokenSequence(cls_tok, patches), c))
        return items

    return build(per_class_train, 0), build(per_class_val, 1)
