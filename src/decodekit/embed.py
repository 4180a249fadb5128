"""Token embedding tables and the cosine alignment used by ASTS scoring.

The on-disk format is the classic word-vector text layout: a header line
``<count> <dim>`` followed by one ``<token> v1 .. v_dim`` row per token.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from decodekit.core import Vocabulary, seeded_generators, utf8_error


# The widest row a file may declare; numpy cannot shape a dim near 2**63.
MAX_DIM = 2**16


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates the text format."""


@dataclass(frozen=True)
class EmbeddingTable:
    """One read-only ``(n, dim)`` float64 matrix; row ``i`` embeds ``vocab.tokens[i]``."""

    vocab: Vocabulary
    matrix: np.ndarray

    def vector(self, token: str) -> np.ndarray:
        try:
            return self.matrix[self.vocab.index[token]]
        except KeyError:
            raise KeyError(f"token {token!r} has no embedding") from None

    def covers(self, vocab: Vocabulary) -> list[str]:
        """Tokens of ``vocab`` that are missing from this table."""
        return [t for t in vocab.tokens if t not in self.vocab.index]


def load_table(path) -> EmbeddingTable:
    """Parse a text embedding file; format errors carry 1-based line numbers.

    All rows are parsed into one ``(count, dim)`` matrix, checked in one
    pass for non-finite components and for a norm that is zero or
    overflows (cosine alignment divides by it, and squares it on the way).
    The table holds that matrix, read-only.
    """
    tokens: list[str] = []
    linenos: list[int] = []
    values: list[float] = []
    seen: set[str] = set()

    def matrix() -> np.ndarray:
        mat = np.array(values, dtype=np.float64).reshape(len(tokens), dim)
        with np.errstate(over="ignore", under="ignore"):
            squared = np.vecdot(mat, mat)  # NaN or inf where a component is not finite
        bad = np.flatnonzero(~((squared > 0.0) & (squared < np.inf)))
        if bad.size:
            i = int(bad[0])
            what = "non-finite component" if not np.isfinite(mat[i]).all() else "zero or overflowing norm"
            raise EmbeddingFormatError(f"{path}: line {linenos[i]}: {what} for {tokens[i]!r}")
        return mat

    def fail(lineno: int, message: str):
        matrix()  # a bad vector above this line is the file's first error
        raise EmbeddingFormatError(f"{path}: line {lineno}: {message}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.strip():
                raise EmbeddingFormatError(f"{path}: line 1: missing '<count> <dim>' header")
            parts = header.split()
            if len(parts) != 2:
                raise EmbeddingFormatError(f"{path}: line 1: header must be '<count> <dim>'")
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise EmbeddingFormatError(f"{path}: line 1: header fields must be integers") from None
            if count < 1 or not 1 <= dim <= MAX_DIM:
                raise EmbeddingFormatError(
                    f"{path}: line 1: invalid header values {count} {dim} (count at least 1, dim 1 to {MAX_DIM})"
                )
            for lineno, line in enumerate(fh, start=2):
                fields = line.split()
                if not fields:
                    continue
                token = fields[0]
                if len(fields) != dim + 1:
                    fail(lineno, f"expected {dim} values for {token!r}, got {len(fields) - 1}")
                if token in seen:
                    fail(lineno, f"duplicate token {token!r}")
                try:
                    row = list(map(float, fields[1:]))
                except ValueError:
                    row = None
                if row is None:
                    fail(lineno, f"non-numeric component for {token!r}")
                seen.add(token)
                tokens.append(token)
                linenos.append(lineno)
                values += row
    except UnicodeDecodeError:
        raise EmbeddingFormatError(utf8_error(path)) from None
    mat = matrix()
    if len(tokens) != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} rows but file contains {len(tokens)}"
        )
    mat.flags.writeable = False
    return EmbeddingTable(Vocabulary.from_tokens(tokens), mat)


def save_table(path, table: EmbeddingTable) -> None:
    """Inverse of load_table; handy for fixtures and synthetic tables."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%d %d\n" % table.matrix.shape)
        for token, vec in zip(table.vocab.tokens, table.matrix):
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def cosine(a, b) -> float:
    """Cosine similarity; rejects zero-norm inputs rather than guessing."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cosine: shape mismatch {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def context_embedding(
    history,
    table: EmbeddingTable,
    vocab: Vocabulary,
    pooling: str = "mean",
    decay: float = 0.8,
    context_window: int = 0,
) -> np.ndarray:
    """Pool the embeddings of the generated history into one context vector.

    ``pooling`` is "mean" (default) or "decay"; decay pooling weights token
    age ``a`` (0 = most recent) by ``decay ** a`` before averaging.
    ``context_window`` keeps only the trailing N history tokens (0 = all).
    Unknown tokens are a hard error naming the offender; silently skipping
    them would quietly bias the alignment scores.
    """
    ids = list(history)
    if context_window > 0:
        ids = ids[-context_window:]
    if not ids:
        raise ValueError("context_embedding requires a nonempty history")
    return pool_rows(np.stack([table.vector(vocab.tokens[tid]) for tid in ids]), pooling, decay)


def pool_rows(mat: np.ndarray, pooling: str = "mean", decay: float = 0.8) -> np.ndarray:
    """Pool the ``(n, dim)`` history rows ``mat``, oldest first; see ``context_embedding``."""
    if pooling == "mean":
        return mat.mean(axis=0)
    ages = np.arange(len(mat) - 1, -1, -1, dtype=np.float64)
    w = decay**ages
    return (mat * w[:, None]).sum(axis=0) / w.sum()


def synthetic_table(vocab: Vocabulary, dim: int = 16, seed: int = 0) -> EmbeddingTable:
    """Deterministic hash-derived unit vectors, one per vocabulary token.

    Each vector is drawn from ``PCG64(blake2b(seed, token))``, so the table
    depends only on (seed, token string) and is identical across platforms.
    The rows' generators come from ``seeded_generators``.
    """
    if dim < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {dim}")
    matrix = np.empty((len(vocab), dim), dtype=np.float64)
    digests = (hashlib.blake2b(f"{seed}\x1f{token}".encode("utf-8"), digest_size=8).digest() for token in vocab.tokens)
    for row, gen in zip(matrix, seeded_generators(int.from_bytes(d, "little") for d in digests)):
        vec = gen.standard_normal(dim)
        norm = np.linalg.norm(vec)
        while norm == 0.0:  # astronomically unlikely, but keep the unit-norm contract
            vec = gen.standard_normal(dim)
            norm = np.linalg.norm(vec)
        np.divide(vec, norm, out=row)
    matrix.flags.writeable = False
    return EmbeddingTable(vocab, matrix)
