"""Tie-heavy differential corpus: pinned outputs of seeded scenario variants.

A seeded generator derives variants of the all-attack-types golden
scenario that put events on the same microsecond: inject starts on and
next to the 50/100 ms fleet grid and one or two 8-byte frame times
after it, radio loss 0 / 0.05 / 0.3, radio latency 0 / 2 / 50 ms,
wired and radio repeat attachments, and the scenario seed. Each
variant's SHA-256 over its summary JSON and every output file (in path
order) must match the table in tie_corpus.json. A variant whose run
raises pins "<exception type>: <message>" instead.

Regenerate the table (only for an output change that was predicted):

    PYTHONPATH=src python tests/test_tie_corpus.py
"""

import copy
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from test_golden import ALL_ATTACK_TYPES

from stave import run_scenario, validate_scenario
from stave.errors import StaveError
from stave.runner import json_text

TABLE = Path(__file__).with_name("tie_corpus.json")
VARIANTS = 120
GENERATOR_SEED = 20261018
# the fleet broadcasts every 50 ms (JOY1) and 100 ms (STR1, HYD1, EEC1)
GRID_US = tuple(range(2_100_000, 2_900_001, 50_000))
# on the grid, one microsecond either side, one and two 8-byte frame
# times (524 us at 250 kbit/s) after it, and 540 us after it
NEAR_US = (0, 0, 1, -1, 524, 540, 1048)
REPEAT_ATTACHMENTS = (
    {"kind": "wired", "segment": "vehicle0"},
    {"kind": "wired", "segment": "operator0"},
    {"kind": "radio", "strategy": {"mode": "follow_hops"}},
    {"kind": "radio", "strategy": {"mode": "fixed", "channel": 0}},
)
# ALL_ATTACK_TYPES's inject attacks, in list order
INJECTS = (8, 9, 10)


def _start_s(rng: random.Random) -> float:
    # the injected schedules are planned at 2.1 s: no inject may start earlier
    return max(2_100_000, rng.choice(GRID_US) + rng.choice(NEAR_US)) / 1e6


def variants() -> list[dict]:
    rng = random.Random(GENERATOR_SEED)
    docs = []
    for _ in range(VARIANTS):
        doc = copy.deepcopy(ALL_ATTACK_TYPES)
        doc["seed"] = rng.randrange(1000)
        doc["radio"]["loss_probability"] = rng.choice((0.0, 0.05, 0.3))
        doc["radio"]["latency_s"] = rng.choice((0.0, 0.002, 0.05))
        attacks = doc["attacks"]
        for index in INJECTS:
            attacks[index]["start_s"] = _start_s(rng)
        attacks[8]["attachment"] = copy.deepcopy(rng.choice(REPEAT_ATTACHMENTS))
        attacks[9]["repeat"] = rng.random() < 0.5
        docs.append(doc)
    return docs


DOCS = variants()


def outcome(doc: dict, out_dir: Path) -> str:
    """SHA-256 over the summary and every output file, or the error raised."""
    try:
        result = run_scenario(validate_scenario(doc), out_dir)
    except StaveError as exc:
        return f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(json_text(result.summary).encode("utf-8"))
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned() -> list[str]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_variant(pinned) -> None:
    assert len(pinned) == VARIANTS


@pytest.mark.parametrize("index", range(VARIANTS))
def test_variant_matches_pinned_outcome(index: int, pinned, tmp_path) -> None:
    assert outcome(DOCS[index], tmp_path) == pinned[index]


if __name__ == "__main__":
    import tempfile

    table = []
    for doc in variants():
        with tempfile.TemporaryDirectory() as tmp:
            table.append(outcome(doc, Path(tmp)))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    errors = [o for o in table if ":" in o]
    print(f"wrote {len(table)} outcomes ({len(errors)} raise) to {TABLE}", file=sys.stderr)
