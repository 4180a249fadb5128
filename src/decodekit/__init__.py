"""Entropy-aware decoding strategies and a small evaluation harness.

The package is organised around a handful of flat modules:

core       probability primitives (distributions, entropy, sampling, RNG)
lts        locally typical sampling (band and mass variants)
asts       adaptive semantic-aware typicality sampling
embed      token embeddings and cosine alignment helpers
baselines  greedy, top-k, nucleus and mirostat truncation rules
samplers   rule adapters (restrict + observe) the decode loop drives
metrics    perplexity, repetition, Zipf and n-gram diversity metrics
simlm      synthetic language model and the decode loop, which makes every draw
harness    JSON-config run driver shared by the CLI subcommands
outputs    output files written beside their path and renamed over it when done
cli        argparse entry point (``decodekit generate|sweep|metrics|golden``)
"""

from decodekit.core import Rng, TokenDistribution, Vocabulary, entropy, surprisal

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "TokenDistribution",
    "Vocabulary",
    "entropy",
    "surprisal",
    "__version__",
]
