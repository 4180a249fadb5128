"""Embedding tables: file format, cosine alignment, context pooling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodekit.core import Vocabulary
from decodekit.embed import (
    EmbeddingFormatError,
    EmbeddingTable,
    context_embedding,
    cosine,
    load_table,
    save_table,
    synthetic_table,
)

vectors_3d = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


def write_table(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_happy_path(self, tmp_path):
        path = write_table(tmp_path, "2 3\nalpha 1.0 0.0 0.0\nbeta 0.5 0.5 0.0\n")
        table = load_table(path)
        assert table.matrix.shape == (2, 3)
        assert len(table.vocab) == 2
        assert table.vector("alpha").tolist() == [1.0, 0.0, 0.0]

    def test_short_row_errors_with_line_number(self, tmp_path):
        path = write_table(tmp_path, "2 3\nalpha 1.0 0.0 0.0\nbeta 0.5 0.5\n")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_table(path)

    def test_duplicate_token_errors(self, tmp_path):
        path = write_table(tmp_path, "2 2\nalpha 1 0\nalpha 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="duplicate token 'alpha'"):
            load_table(path)

    def test_count_mismatch_errors(self, tmp_path):
        path = write_table(tmp_path, "3 2\nalpha 1 0\nbeta 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="declares 3"):
            load_table(path)

    def test_non_numeric_component(self, tmp_path):
        path = write_table(tmp_path, "1 2\nalpha 1 banana\n")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_table(path)

    def test_non_finite_component(self, tmp_path):
        path = write_table(tmp_path, "1 2\nalpha 1 inf\n")
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_table(path)

    def test_bad_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_table(write_table(tmp_path, "3\nalpha 1 0\n"))
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_table(write_table(tmp_path, "two 3\n"))
        # Dims too wide for numpy to shape, with and without rows after them.
        for text in ("1 99999999999999999999\nalpha 1\n", "4 9223372036854775807\nalpha 1\n", "0 4611686018427387904\n"):
            with pytest.raises(EmbeddingFormatError, match="line 1: invalid header values"):
                load_table(write_table(tmp_path, text))
        # A table of no rows covers no vocabulary.
        for text in ("0 3\n", "0 2\nalpha 1 0\n"):
            with pytest.raises(EmbeddingFormatError, match="line 1: invalid header values"):
                load_table(write_table(tmp_path, text))

    def test_blank_lines_skipped(self, tmp_path):
        path = write_table(tmp_path, "1 2\n\nalpha 1 0\n\n")
        assert len(load_table(path).vocab) == 1

    def test_roundtrip_through_save(self, tmp_path):
        vocab = Vocabulary.from_tokens(("a", "b", "c"))
        table = synthetic_table(vocab, dim=5, seed=9)
        path = tmp_path / "round.txt"
        save_table(path, table)
        back = load_table(path)
        for token in vocab.tokens:
            assert back.vector(token).tolist() == table.vector(token).tolist()


    def test_first_error_in_file_order(self, tmp_path):
        # The non-finite row comes before the duplicate, so it is reported.
        path = write_table(tmp_path, "3 2\nalpha 1 0\nbeta nan 1\nalpha 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: non-finite component for 'beta'"):
            load_table(path)
        path = write_table(tmp_path, "3 2\nalpha 1 0\n\nbeta 1 1\ngamma 1 -inf\n")
        with pytest.raises(EmbeddingFormatError, match="line 5: non-finite component for 'gamma'"):
            load_table(path)

    @pytest.mark.parametrize("row", ["0 0 -0.0", "1e-200 0 1e-200", "1e200 1 0", "-1e300 -1e300 0"])
    def test_zero_or_overflowing_norm_names_the_line(self, tmp_path, row):
        path = write_table(tmp_path, f"2 3\nalpha 1 0 0\n\nbeta {row}\n")
        with pytest.raises(EmbeddingFormatError, match="line 4: zero or overflowing norm for 'beta'"):
            load_table(path)

    def test_byte_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\nalpha 1 0\nb\xffeta 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: not UTF-8 text"):
            load_table(path)

    def test_rows_parse_like_python_floats(self, tmp_path):
        path = write_table(tmp_path, "2 3\nalpha 1_0 -0.0 1e-320\nbeta .5 +3 7\n")
        table = load_table(path)
        assert table.vector("alpha").tolist() == [10.0, -0.0, 1e-320]
        assert table.vector("beta").tolist() == [0.5, 3.0, 7.0]
        assert not table.vector("beta").flags.writeable


def one_vector_table():
    return EmbeddingTable(Vocabulary.from_tokens(("a",)), np.array([[1.0, 0.0]]))


class TestTable:
    def test_vector_missing_token_named(self):
        with pytest.raises(KeyError, match="'b'"):
            one_vector_table().vector("b")

    def test_covers_lists_missing(self):
        vocab = Vocabulary.from_tokens(("a", "b", "c"))
        assert one_vector_table().covers(vocab) == ["b", "c"]

    def test_vector_is_a_row_of_the_matrix(self):
        table = EmbeddingTable(Vocabulary.from_tokens(("a", "b")), np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert table.vector("b").tolist() == [0.0, 2.0]
        assert np.shares_memory(table.vector("b"), table.matrix)

    def test_built_tables_are_read_only(self, tmp_path):
        vocab = Vocabulary.from_tokens(("a", "b", "c"))
        synthetic = synthetic_table(vocab, dim=4, seed=1)
        save_table(tmp_path / "emb.txt", synthetic)
        for table in (synthetic, load_table(tmp_path / "emb.txt")):
            assert table.matrix.shape == (3, 4) and table.matrix.dtype == np.float64
            assert not table.matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table.matrix[0, 0] = 1.0


class TestCosine:
    def test_identical_vectors(self):
        assert cosine([2.0, 1.0], [2.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_forty_five_degrees(self):
        assert cosine([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine([0, 0], [1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            cosine([1, 0], [1, 0, 0])

    @given(vectors_3d, vectors_3d)
    def test_symmetry(self, a, b):
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-9)

    @given(vectors_3d, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_invariance(self, a, c):
        scaled = [c * x for x in a]
        assert cosine(a, scaled) == pytest.approx(1.0, abs=1e-9)
        assert cosine(scaled, a) == pytest.approx(cosine(a, a), abs=1e-9)

    @given(vectors_3d, vectors_3d)
    def test_bounded(self, a, b):
        assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9


def two_vector_table():
    return EmbeddingTable(Vocabulary.from_tokens(("a", "b")), np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestContextEmbedding:
    def test_single_token_is_its_vector(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        out = context_embedding([0], two_vector_table(), vocab)
        assert out.tolist() == [1.0, 0.0]

    def test_mean_of_two(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        out = context_embedding([0, 1], two_vector_table(), vocab)
        assert out.tolist() == [0.5, 0.5]

    def test_mean_of_three(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        out = context_embedding([0, 0, 1], two_vector_table(), vocab)
        assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_empty_history_rejected(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        with pytest.raises(ValueError, match="nonempty"):
            context_embedding([], two_vector_table(), vocab)

    def test_unknown_token_named(self):
        vocab = Vocabulary.from_tokens(("a", "zzz"))
        with pytest.raises(KeyError, match="zzz"):
            context_embedding([1], two_vector_table(), vocab)

    def test_context_window_keeps_trailing_tokens(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        out = context_embedding([0, 0, 0, 1], two_vector_table(), vocab, context_window=1)
        assert out.tolist() == [0.0, 1.0]

    def test_decay_weights_favour_recent(self):
        # ages: a=1, b=0; weights 0.5, 1.0 -> (0.5*[1,0] + 1*[0,1]) / 1.5
        vocab = Vocabulary.from_tokens(("a", "b"))
        out = context_embedding([0, 1], two_vector_table(), vocab, pooling="decay", decay=0.5)
        assert out == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_decay_one_equals_mean(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        mean = context_embedding([0, 1, 1], two_vector_table(), vocab)
        dec = context_embedding([0, 1, 1], two_vector_table(), vocab, pooling="decay", decay=1.0)
        assert dec == pytest.approx(mean, abs=1e-12)

    @given(st.permutations([0, 0, 1, 1, 0]))
    def test_mean_pooling_permutation_invariant(self, order):
        vocab = Vocabulary.from_tokens(("a", "b"))
        base = context_embedding([0, 0, 1, 1, 0], two_vector_table(), vocab)
        out = context_embedding(list(order), two_vector_table(), vocab)
        assert out == pytest.approx(base, abs=1e-12)


class TestSyntheticTable:
    def test_unit_norm_and_coverage(self):
        vocab = Vocabulary.from_tokens(("x", "y", "z"))
        table = synthetic_table(vocab, dim=16, seed=0)
        assert table.covers(vocab) == []
        for token in vocab.tokens:
            assert np.linalg.norm(table.vector(token)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_in_seed_and_token(self):
        vocab = Vocabulary.from_tokens(("x", "y"))
        a = synthetic_table(vocab, dim=8, seed=4)
        b = synthetic_table(vocab, dim=8, seed=4)
        assert a.vector("x").tolist() == b.vector("x").tolist()

    def test_vector_depends_only_on_token_string(self):
        # Same token in a different vocabulary gets the same vector.
        a = synthetic_table(Vocabulary.from_tokens(("x", "y")), dim=8, seed=4)
        b = synthetic_table(Vocabulary.from_tokens(("q", "x")), dim=8, seed=4)
        assert a.vector("x").tolist() == b.vector("x").tolist()

    def test_different_seeds_differ(self):
        vocab = Vocabulary.from_tokens(("x",))
        a = synthetic_table(vocab, dim=8, seed=1)
        b = synthetic_table(vocab, dim=8, seed=2)
        assert a.vector("x").tolist() != b.vector("x").tolist()
