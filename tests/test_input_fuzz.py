"""Malformed input files: every mutation of a file the CLI reads exits cleanly.

One small ASTS run reads three files: a replay model (``file:`` selector), a
prompt file and an embedding table. Each case breaks one of them with a
seeded mutation (a dropped or duplicated field, row or value, a number
swapped for a string, bool, NaN, 1e999 or nested list, a wrong header, a
duplicate token, blank lines, an unknown prompt token, every sequence empty,
a degenerate embedding vector, a byte that is not UTF-8) and runs the CLI in
process. The run must exit 0, or exit 3 with an input error naming the file,
and print no warning or traceback.

``metrics`` reads a generated and a reference corpus, in ``jsonl`` or
``text`` format, scored uniformly or by a configured model. Each case
breaks one corpus the same way (and, in ``text``, with odd whitespace, a
JSON line, a sequence too short or a single repeated token); a broken
generated corpus is scored alone. The run may also exit 1, a metric
undefined on the corpus, but under the same rules.
"""

import json
import random
import warnings

import pytest

from decodekit.cli import main

TOKENS = ["a", "b", "c", "d", "e", "f"]
STEPS = [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [0.5, 0.5, 1, 1, 0, 2]]
PROMPTS = [["a", "b"], ["c"], []]
# A corpus every metric is defined on; its tokens are in a synthetic model's vocabulary.
CORPUS = [
    ["tok001", "tok002", "tok003", "tok001", "tok002"],
    ["tok004", "tok001", "tok005", "tok002"],
    ["tok003", "tok003", "tok004", "tok005", "tok001", "tok002"],
]
DIM = 3
SEEDS = range(3)

# A JSON value that json.dumps cannot write; spliced into the text afterwards.
OVERFLOW = "\x00overflow"
BAD_VALUES = ["x", True, float("nan"), OVERFLOW, [0.5]]
BAD_TEXT = ["x", "true", "NaN", "1e999", "[0.5]"]
BLANKS = ["", "   ", "\t \t"]


def dumps(obj) -> str:
    return json.dumps(obj).replace(json.dumps(OVERFLOW), "1e999")


def replay_doc() -> dict:
    return {"tokens": list(TOKENS), "steps": [list(row) for row in STEPS]}


def embedding_rows() -> list[list[str]]:
    return [[t, repr(0.1 * i + 0.3), repr(0.5 - 0.2 * i), "0.7"] for i, t in enumerate(TOKENS)]


def embedding_text(rows, header=None) -> str:
    header = f"{len(rows)} {DIM}" if header is None else header
    return "\n".join([header, *(" ".join(row) for row in rows)]) + "\n"


def text_of(lines) -> str:
    return "".join(line + "\n" for line in lines)


def jsonl_lines(seqs) -> list[str]:
    return [json.dumps({"tokens": s}) for s in seqs]


def text_lines(seqs) -> list[str]:
    return [" ".join(s) for s in seqs]


# Each mutation takes a seeded random.Random and returns the broken file's text (or bytes).


def replay_mutations():
    def drop_key(rng):
        doc = replay_doc()
        del doc[rng.choice(["tokens", "steps"])]
        return dumps(doc)

    def drop_row(rng):
        doc = replay_doc()
        doc["steps"] = doc["steps"][: rng.randrange(len(STEPS))]
        return dumps(doc)

    def drop_value(rng):
        doc = replay_doc()
        key = rng.choice(["tokens", "steps"])
        row = doc[key] if key == "tokens" else rng.choice(doc["steps"])
        del row[rng.randrange(len(row))]
        return dumps(doc)

    def duplicate_row(rng):
        doc = replay_doc()
        doc["steps"].insert(rng.randrange(len(STEPS)), list(rng.choice(STEPS)))
        return dumps(doc)

    def duplicate_value(rng):
        doc = replay_doc()
        row = rng.choice(doc["steps"])
        row.insert(rng.randrange(len(row)), rng.choice(row))
        return dumps(doc)

    def duplicate_key(rng):
        doc = replay_doc()
        key = rng.choice(["tokens", "steps"])
        return dumps(doc)[:-1] + f", {json.dumps(key)}: {dumps(doc[key][:-1])}}}"

    def duplicate_token(rng):
        doc = replay_doc()
        i, j = rng.sample(range(len(TOKENS)), 2)
        doc["tokens"][i] = doc["tokens"][j]
        return dumps(doc)

    def bad_probability(rng):
        doc = replay_doc()
        row = rng.choice(doc["steps"])
        row[rng.randrange(len(row))] = rng.choice(BAD_VALUES)
        return dumps(doc)

    def bad_token(rng):
        doc = replay_doc()
        doc["tokens"][rng.randrange(len(TOKENS))] = rng.choice(BAD_VALUES)
        return dumps(doc)

    def bad_section(rng):
        doc = replay_doc()
        doc[rng.choice(["tokens", "steps"])] = rng.choice(BAD_VALUES + [[], [[]]])
        return dumps(doc)

    def bad_document(rng):
        return dumps(rng.choice(BAD_VALUES + [[replay_doc()]]))

    def blank_lines(rng):
        lines = json.dumps(replay_doc(), indent=1).split("\n")
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANKS))
        return "\n".join(lines)

    def only_blank_lines(rng):
        return "\n".join(rng.choices(BLANKS, k=3))

    return locals()


def jsonl_mutations(seqs):
    """Mutations of a JSON-lines file of token sequences: a prompt file or a ``jsonl`` corpus."""

    def drop_line(rng):
        lines = jsonl_lines(seqs)
        del lines[rng.randrange(len(lines))]
        return text_of(lines)

    def drop_field(rng):
        lines = jsonl_lines(seqs)
        lines[rng.randrange(len(lines))] = json.dumps({"token": ["a"]})
        return text_of(lines)

    def duplicate_line(rng):
        lines = jsonl_lines(seqs)
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
        return text_of(lines)

    def duplicate_token(rng):
        edited = [list(seq) for seq in seqs]
        edited[0].insert(rng.randrange(3), rng.choice(edited[0]))
        return text_of(jsonl_lines(edited))

    def bad_token(rng):
        edited = [list(seq) for seq in seqs]
        edited[0][rng.randrange(2)] = rng.choice(BAD_VALUES)
        return text_of(dumps({"tokens": seq}) for seq in edited)

    def bad_tokens_field(rng):
        lines = jsonl_lines(seqs)
        lines[rng.randrange(len(lines))] = dumps({"tokens": rng.choice(BAD_VALUES)})
        return text_of(lines)

    def bad_line(rng):
        lines = jsonl_lines(seqs)
        lines[rng.randrange(len(lines))] = rng.choice(BAD_TEXT + ['{"tokens": ["a"]', "[]"])
        return text_of(lines)

    def blank_lines(rng):
        lines = jsonl_lines(seqs)
        for _ in range(2):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANKS))
        return text_of(lines)

    def only_blank_lines(rng):
        return text_of(rng.choices(BLANKS, k=3))

    def every_sequence_empty(rng):
        return text_of(jsonl_lines([[] for _ in seqs]))

    def unknown_token(rng):
        edited = [list(seq) for seq in seqs]
        edited[rng.randrange(2)].append(rng.choice(["z", "A", "a ", ""]))
        return text_of(jsonl_lines(edited))

    return {name: f for name, f in locals().items() if callable(f)}  # less the argument


def text_mutations(seqs):
    """Mutations of a ``text`` corpus: one sequence a line, its tokens split on whitespace."""

    def drop_line(rng):
        lines = text_lines(seqs)
        del lines[rng.randrange(len(lines))]
        return text_of(lines)

    def duplicate_line(rng):
        lines = text_lines(seqs)
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
        return text_of(lines)

    def short_line(rng):
        lines = text_lines(seqs)
        i = rng.randrange(len(lines))
        lines[i] = " ".join(seqs[i][: rng.randrange(1, 3)])
        return text_of(lines)

    def one_token(rng):
        token = rng.choice(seqs[0])
        return text_of(" ".join([token] * len(seq)) for seq in seqs)

    def odd_whitespace(rng):
        return text_of(rng.choice(["\t", "  ", "\xa0", "\x0c", "\x1f", "\u2028", "\r"]).join(seq) for seq in seqs)

    def json_line(rng):
        lines = text_lines(seqs)
        lines[rng.randrange(len(lines))] = json.dumps({"tokens": rng.choice(seqs)})
        return text_of(lines)

    def blank_lines(rng):
        lines = text_lines(seqs)
        for _ in range(2):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANKS))
        return text_of(lines)

    def only_blank_lines(rng):
        return text_of(rng.choices(BLANKS, k=3))

    def unknown_token(rng):
        lines = text_lines(seqs)
        lines[rng.randrange(len(lines))] += " " + rng.choice(["z", "A", "tok999", "{}"])
        return text_of(lines)

    return {name: f for name, f in locals().items() if callable(f)}  # less the argument


def embedding_mutations():
    def drop_row(rng):
        rows = embedding_rows()
        del rows[rng.randrange(len(rows))]
        return embedding_text(rows, header=rng.choice([None, f"{len(TOKENS)} {DIM}"]))

    def drop_value(rng):
        rows = embedding_rows()
        row = rng.choice(rows)
        del row[rng.randrange(1, len(row))]
        return embedding_text(rows)

    def drop_token(rng):
        rows = embedding_rows()
        del rng.choice(rows)[0]
        return embedding_text(rows)

    def duplicate_row(rng):
        rows = embedding_rows()
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        return embedding_text(rows, header=rng.choice([None, f"{len(TOKENS)} {DIM}"]))

    def duplicate_value(rng):
        rows = embedding_rows()
        row = rng.choice(rows)
        row.insert(rng.randrange(1, len(row)), rng.choice(row[1:]))
        return embedding_text(rows)

    def duplicate_token(rng):
        rows = embedding_rows()
        i, j = rng.sample(range(len(rows)), 2)
        rows[i][0] = rows[j][0]
        return embedding_text(rows)

    def bad_value(rng):
        rows = embedding_rows()
        row = rng.choice(rows)
        row[rng.randrange(1, len(row))] = rng.choice(BAD_TEXT)
        return embedding_text(rows)

    def wrong_header(rng):
        count, dim = len(TOKENS), DIM
        header = rng.choice(
            [f"{count + 1} {dim}", f"{count - 1} {dim}", f"{count} {dim + 1}", f"{count} {dim - 1}",
             f"{count}", f"{count} {dim} {dim}", f"{count} {rng.choice(BAD_TEXT)}", f"-1 {dim}", ""]
        )
        return embedding_text(embedding_rows(), header=header)

    def blank_lines(rng):
        lines = embedding_text(embedding_rows()).split("\n")
        for _ in range(2):
            lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(BLANKS))
        return "\n".join(lines)

    def blank_header(rng):
        return rng.choice(BLANKS) + "\n" + embedding_text(embedding_rows())

    def only_blank_lines(rng):
        return "\n".join(rng.choices(BLANKS, k=3))

    def unknown_token(rng):
        rows = embedding_rows()
        rng.choice(rows)[0] = "z"
        return embedding_text(rows)

    def degenerate_vector(rng):
        rows = embedding_rows()
        rows[rng.randrange(len(rows))][1:] = [rng.choice(["0", "-0.0", "1e-200", "1e200", "-1e300"])] * DIM
        return embedding_text(rows)

    return locals()


def not_utf8(text: str):
    """The mutation that puts a byte that is not UTF-8 into ``text``."""

    def mutation(rng):
        raw = text.encode("utf-8")
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + raw[at:]

    return mutation


FILES = {
    "replay.json": {**replay_mutations(), "not_utf8": not_utf8(dumps(replay_doc()))},
    "prompts.jsonl": {**jsonl_mutations(PROMPTS), "not_utf8": not_utf8(text_of(jsonl_lines(PROMPTS)))},
    "emb.txt": {**embedding_mutations(), "not_utf8": not_utf8(embedding_text(embedding_rows()))},
}
CASES = [(name, mutation, seed) for name, mutations in FILES.items() for mutation in mutations for seed in SEEDS]


def write_inputs(tmp_path) -> str:
    """The three valid input files and a config reading them; returns the config path."""
    (tmp_path / "replay.json").write_text(dumps(replay_doc()), encoding="utf-8")
    (tmp_path / "prompts.jsonl").write_text(text_of(jsonl_lines(PROMPTS)), encoding="utf-8")
    (tmp_path / "emb.txt").write_text(embedding_text(embedding_rows()), encoding="utf-8")
    cfg = {
        "seed": 1,
        "max_tokens": 6,
        "num_sequences": 3,
        "sampler": "asts",
        "model": {"selector": f"file:{tmp_path / 'replay.json'}"},
        "prompt": {"file": str(tmp_path / "prompts.jsonl")},
        "asts": {"alignment": "embedding", "relevance": "keywords", "keywords": ["a", "c"]},
        "embed": {"table": str(tmp_path / "emb.txt")},
        "output": {"corpus": str(tmp_path / "out.jsonl")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def generate(config: str, audit: str) -> int:
    """Exit code of ``generate``; a warning or an exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["generate", "--config", config, "--audit", audit])


def test_valid_inputs_run(tmp_path):
    assert generate(write_inputs(tmp_path), str(tmp_path / "audit.jsonl")) == 0
    assert len((tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()) == 3


@pytest.mark.parametrize("name,mutation,seed", CASES, ids=[f"{n}-{m}-{s}" for n, m, s in CASES])
def test_mutated_input_exits_zero_or_three(tmp_path, capsys, name, mutation, seed):
    config = write_inputs(tmp_path)
    broken = FILES[name][mutation](random.Random(f"{name}/{mutation}/{seed}"))
    if isinstance(broken, str):
        broken = broken.encode("utf-8")
    (tmp_path / name).write_bytes(broken)
    code = generate(config, str(tmp_path / "audit.jsonl"))
    err = capsys.readouterr().err
    assert code in (0, 3), err
    if code == 3:  # the error names the file at fault, or one that no longer matches it
        assert err.startswith("input error: ") and any(f"{tmp_path / n}: " in err for n in FILES), err


CORPORA = {
    "jsonl": {**jsonl_mutations(CORPUS), "not_utf8": not_utf8(text_of(jsonl_lines(CORPUS)))},
    "text": {**text_mutations(CORPUS), "not_utf8": not_utf8(text_of(text_lines(CORPUS)))},
}
CORPUS_CASES = [
    (role, fmt, mutation, seed)
    for role in ("generated", "reference")
    for fmt, mutations in CORPORA.items()
    for mutation in mutations
    for seed in SEEDS
]


def score(tmp_path, fmt: str, scorer: str, roles=("generated", "reference")) -> int:
    """Exit code of ``metrics`` on the corpora ``roles``; a warning or an exception fails the test."""
    args = ["metrics", "--format", fmt, "--out", str(tmp_path / "report.json")]
    for role in roles:
        args += [f"--{role}", str(tmp_path / f"{role}.{fmt}")]
    if scorer == "model":
        cfg = {"model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}}}
        (tmp_path / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
        args += ["--config", str(tmp_path / "run.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(args)


def write_corpora(tmp_path, fmt: str) -> None:
    lines = jsonl_lines(CORPUS) if fmt == "jsonl" else text_lines(CORPUS)
    for role in ("generated", "reference"):
        (tmp_path / f"{role}.{fmt}").write_text(text_of(lines), encoding="utf-8")


@pytest.mark.parametrize("scorer", ["uniform", "model"])
@pytest.mark.parametrize("fmt", sorted(CORPORA))
def test_valid_corpora_score(tmp_path, fmt, scorer):
    write_corpora(tmp_path, fmt)
    assert score(tmp_path, fmt, scorer) == 0
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["ppl_delta"] == 0.0


@pytest.mark.parametrize("scorer", ["uniform", "model"])
@pytest.mark.parametrize(
    "role,fmt,mutation,seed", CORPUS_CASES, ids=[f"{r}-{f}-{m}-{s}" for r, f, m, s in CORPUS_CASES]
)
def test_mutated_corpus_exits_zero_one_or_three(tmp_path, capsys, role, fmt, mutation, seed, scorer):
    write_corpora(tmp_path, fmt)
    broken = CORPORA[fmt][mutation](random.Random(f"{fmt}/{mutation}/{seed}"))
    if isinstance(broken, str):
        broken = broken.encode("utf-8")
    path = tmp_path / f"{role}.{fmt}"
    path.write_bytes(broken)
    # A broken generated corpus is scored alone, so no reference makes up for what it lacks.
    code = score(tmp_path, fmt, scorer, roles=("generated",) if role == "generated" else ("generated", "reference"))
    err = capsys.readouterr().err
    assert code in (0, 1, 3), err
    if code == 1:
        assert err.startswith("metric error: ") and err.count("\n") == 1, err
    if code == 3:  # the error names the corpus at fault
        assert err.startswith("input error: ") and str(path) in err, err
