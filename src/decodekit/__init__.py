"""Entropy-aware decoding strategies and a small evaluation harness.

The package is organised around a handful of flat modules:

core       probability primitives (distributions, entropy, sampling, RNG)
lts        locally typical sampling (band and mass variants)
asts       adaptive semantic-aware typicality sampling
embed      token embeddings and cosine alignment helpers
baselines  greedy, top-k / nucleus truncation rules, mirostat controller
samplers   step adapters the decode loop drives (one for every truncation rule)
metrics    perplexity, repetition, Zipf and n-gram diversity metrics
simlm      deterministic synthetic language model for desk-scale runs
harness    JSON-config run driver shared by the CLI subcommands
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
