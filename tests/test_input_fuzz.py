"""Malformed input files: every mutation of a valid replay, prompt or embedding file exits 0 or 3.

One small ASTS run reads all three files: a replay model (``file:``
selector), a prompt file and an embedding table. Each case breaks one of
them with a seeded mutation (a dropped or duplicated field, row or value, a
number swapped for a string, bool, NaN, 1e999 or nested list, a wrong
header, a duplicate token, blank lines, an unknown prompt token, a
degenerate embedding vector, a byte that is not UTF-8) and runs
the CLI in process. The run must exit 0, or exit 3 with an input error
naming the file, and print no warning or traceback.
"""

import json
import random
import warnings

import pytest

from decodekit.cli import main

TOKENS = ["a", "b", "c", "d", "e", "f"]
STEPS = [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [0.5, 0.5, 1, 1, 0, 2]]
PROMPTS = [["a", "b"], ["c"], []]
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


def prompt_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def prompt_lines(prompts=PROMPTS) -> list[str]:
    return [json.dumps({"tokens": p}) for p in prompts]


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


def prompt_mutations():
    def drop_line(rng):
        lines = prompt_lines()
        del lines[rng.randrange(len(lines))]
        return prompt_text(lines)

    def drop_field(rng):
        lines = prompt_lines()
        lines[rng.randrange(len(lines))] = json.dumps({"token": ["a"]})
        return prompt_text(lines)

    def duplicate_line(rng):
        lines = prompt_lines()
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
        return prompt_text(lines)

    def duplicate_token(rng):
        prompts = [list(p) for p in PROMPTS]
        prompts[0].insert(rng.randrange(3), rng.choice(prompts[0]))
        return prompt_text(prompt_lines(prompts))

    def bad_token(rng):
        prompts = [list(p) for p in PROMPTS]
        prompts[0][rng.randrange(2)] = rng.choice(BAD_VALUES)
        return prompt_text(dumps({"tokens": p}) for p in prompts)

    def bad_tokens_field(rng):
        lines = prompt_lines()
        lines[rng.randrange(len(lines))] = dumps({"tokens": rng.choice(BAD_VALUES)})
        return prompt_text(lines)

    def bad_line(rng):
        lines = prompt_lines()
        lines[rng.randrange(len(lines))] = rng.choice(BAD_TEXT + ['{"tokens": ["a"]', "[]"])
        return prompt_text(lines)

    def blank_lines(rng):
        lines = prompt_lines()
        for _ in range(2):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANKS))
        return prompt_text(lines)

    def only_blank_lines(rng):
        return prompt_text(rng.choices(BLANKS, k=3))

    def unknown_token(rng):
        prompts = [list(p) for p in PROMPTS]
        prompts[rng.randrange(2)].append(rng.choice(["z", "A", "a ", ""]))
        return prompt_text(prompt_lines(prompts))

    return locals()


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
    "prompts.jsonl": {**prompt_mutations(), "not_utf8": not_utf8(prompt_text(prompt_lines()))},
    "emb.txt": {**embedding_mutations(), "not_utf8": not_utf8(embedding_text(embedding_rows()))},
}
CASES = [(name, mutation, seed) for name, mutations in FILES.items() for mutation in mutations for seed in SEEDS]


def write_inputs(tmp_path) -> str:
    """The three valid input files and a config reading them; returns the config path."""
    (tmp_path / "replay.json").write_text(dumps(replay_doc()), encoding="utf-8")
    (tmp_path / "prompts.jsonl").write_text(prompt_text(prompt_lines()), encoding="utf-8")
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
