"""Golden outputs: every file a run writes is pinned by its SHA-256.

Each bundled scenario and one inline scenario that exercises every
attack type (both sniff attachments, diff, occupancy on a sniff save,
replay, a wired repeat inject and fixed / follow_hops radio injects)
is run into a fresh directory. The digest of every file written there,
and of the canonical summary JSON, must match the recorded value, so
any change that alters a single output byte fails here.
"""

import hashlib

import pytest
from conftest import load_fixture

from stave import run_scenario, validate_scenario
from stave.runner import json_text

ALL_ATTACK_TYPES = {
    "schema": "stave-scenario/1",
    "seed": 7,
    "duration_s": 3.0,
    "radio": {"num_channels": 8, "hopping": True, "hop_seed": 5, "loss_probability": 0.05},
    "fleet": {"steer_enable": True},
    "joystick_script": [
        {"t_s": 0.0, "x": 125},
        {"t_s": 1.1, "x": 25, "button": 1},
        {"t_s": 1.6, "x": 225, "y": 40},
    ],
    "taps": [
        {"name": "air", "channels": "all"},
        {"name": "narrow", "channels": [0, 3], "inside_faraday": False},
    ],
    "attacks": [
        {"type": "sniff", "start_s": 0.05, "duration_s": 1.0, "save": "pre",
         "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
        {"type": "sniff", "start_s": 1.05, "duration_s": 1.0, "save": "post",
         "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
        {"type": "sniff", "start_s": 0.0, "duration_s": 2.0, "save": "aircap",
         "attachment": {"kind": "radio-tap", "tap": "air"}},
        {"type": "diff", "start_s": 2.1, "pre": "pre", "post": "post", "save": "d"},
        {"type": "occupancy", "start_s": 2.1, "capture": "aircap", "save": "occ"},
        {"type": "occupancy", "start_s": 2.5, "capture": "narrow", "save": "occ_narrow"},
        {"type": "replay", "start_s": 2.1, "capture": "pre",
         "match": {"pgn": "0xFF10"}, "mutate": "byte0=reflect(250)",
         "timing": "preserve", "save": "sched"},
        {"type": "replay", "start_s": 2.1, "capture": "aircap",
         "match": {"can_id": "0x0CFF1028"}, "timing": "fast", "save": "burst"},
        {"type": "inject", "start_s": 2.1, "schedule": "sched", "repeat": True,
         "attachment": {"kind": "wired", "segment": "vehicle0"}},
        {"type": "inject", "start_s": 2.2, "schedule": "sched",
         "attachment": {"kind": "radio", "strategy": {"mode": "follow_hops"}}},
        {"type": "inject", "start_s": 2.3, "schedule": "burst",
         "attachment": {"kind": "radio", "strategy": {"mode": "fixed", "channel": 3},
                        "inside_faraday": False}},
    ],
    "outputs": {
        "summary": "all/summary.json",
        "captures": {name: f"all/{name}.log"
                     for name in ("operator0", "vehicle0", "air", "narrow", "pre", "post", "aircap")},
        "reports": {name: f"all/{name}.json" for name in ("d", "occ", "occ_narrow", "sched", "burst")},
    },
}

GOLDEN: dict[str, dict[str, str]] = {
    "<all-attack-types>": {
        "<summary>": "cc7c65d0de200fc37e0a23958651f75066397a4662ced1108083fb1b9c93290f",
        "all/air.log": "ecccd02f613a723dbdef3d9a8246372b4303043abe5ea01f833db22353f602d4",
        "all/aircap.log": "080287f157cc877d0e6baf2150b9a8859f6dec680a822f2b38684c87006094bc",
        "all/burst.json": "7ac436c5044b967b824c3cbeb9f36a604214f12a53ff41975188c2ddbe5b9d0b",
        "all/d.json": "551d33d57b3084a711f9ef91578b0bb68b4c27cfa8df0d4dafbba76d535c526f",
        "all/narrow.log": "882c69b854f42c3b5c12f1f37c1cbb58007fb58562ecbc263e1ac71920d8a1b1",
        "all/occ.json": "91400bd028bf1a4b4a7b6739b2ba28d08af8b68afe79460ac6c4ba6f460953c6",
        "all/occ_narrow.json": "84e98afb0b8c06967c76c65358d4554b117d08250bab1a9eec4bc0a0d77b96b9",
        "all/operator0.log": "7ca385fee5caf5aeb5a8848db109e66905f64d6d52358084a7ed7923f7672151",
        "all/post.log": "a732301901c4a45f700e1ffc67c3f883460de002c26eac28ea565f7be3a55b9c",
        "all/pre.log": "20a45739737c7d3031c3249bc2297d6527ba314422d766db80b6ff097b558644",
        "all/sched.json": "5ac34d3a4ca2769aea09dbcb2e4cd80d7aacb53ec54c9e3bec519274444090a1",
        "all/summary.json": "cc7c65d0de200fc37e0a23958651f75066397a4662ced1108083fb1b9c93290f",
        "all/vehicle0.log": "50b4e97154d059a285ef8622572108dcc4d4b6bcf982dca118efc2fac0847272",
    },
    "active_wiggle.json": {
        "<summary>": "9fa2aa69c8184cfac6aa8fcb2529df5bda8d1fc4d60b118612ae22dc199f33de",
        "active/summary.json": "9fa2aa69c8184cfac6aa8fcb2529df5bda8d1fc4d60b118612ae22dc199f33de",
        "active/vehicle0.log": "d47dd933d53eaaa26feed990d44c1bcb827844b88a5251f4e57aa5484ca8504c",
    },
    "baseline.json": {
        "<summary>": "4833082d3497acfd1ecd520d92b8dd0680c688e58028990801956d84d04f0e17",
        "baseline/operator0.log": "09298042f09ff71ee03bfe50fc1391b749dc2d0dc0cdfa83ba17dc277a83ed34",
        "baseline/summary.json": "4833082d3497acfd1ecd520d92b8dd0680c688e58028990801956d84d04f0e17",
        "baseline/vehicle0.log": "010a4d7b390f85aac05ea8bf33c5443c956598b93a645896bb69f846bcadde2c",
    },
    "idle.json": {
        "<summary>": "9fa2aa69c8184cfac6aa8fcb2529df5bda8d1fc4d60b118612ae22dc199f33de",
        "idle/summary.json": "9fa2aa69c8184cfac6aa8fcb2529df5bda8d1fc4d60b118612ae22dc199f33de",
        "idle/vehicle0.log": "2421d550676ea364ca79857876c0156d31560d5d0bb3ae5992249949369673b3",
    },
    "lossy_hopping.json": {
        "<summary>": "dcace629ca4546f29d30116d37963186ddccdd2302c147894bb7cfe70d389b7d",
        "lossy/air.log": "a45ee0f6940271b2ae3c7ef3d8d3a180cd821ec3620d6b32a394d8435a5e6cf0",
        "lossy/narrow.log": "aa60950fe0c70cbad6d5865d10039d86f075143a027b62f347789a0a9513e171",
        "lossy/occupancy.json": "1f96adbe79da529072d82db8f72ab21e5f78237af2698dfd06b518cb18810e9d",
        "lossy/summary.json": "dcace629ca4546f29d30116d37963186ddccdd2302c147894bb7cfe70d389b7d",
    },
    "replay_reverse_steer.json": {
        "<summary>": "083f113d82915a9d14ece88e2344f7c988b210dd36e8193c5f33e444206be174",
        "replay/schedule.json": "9336e90aa8c959f1ed3693fc6a183cfb3a62c16770b7254e48c96bfca0905678",
        "replay/sniffed.log": "77f5561093418f4a42fe7ed8df0c7b306fdce2d06268a86e0ca94853ce7890ab",
        "replay/summary.json": "083f113d82915a9d14ece88e2344f7c988b210dd36e8193c5f33e444206be174",
        "replay/vehicle0.log": "5ac2b22da4c1e5fc59e7bd6cebd1c1cf6fbbb475996020a4245b0ef88bd2510c",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(doc: dict, out_dir) -> dict[str, str]:
    """SHA-256 of every file a run of doc writes, plus of its summary JSON."""
    result = run_scenario(validate_scenario(doc), out_dir)
    digests = {path.relative_to(out_dir).as_posix(): _sha(path.read_bytes())
               for path in sorted(out_dir.rglob("*")) if path.is_file()}
    digests["<summary>"] = _sha(json_text(result.summary).encode("utf-8"))
    return digests


def _doc(name: str) -> dict:
    return ALL_ATTACK_TYPES if name == "<all-attack-types>" else load_fixture(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name: str, tmp_path) -> None:
    assert output_digests(_doc(name), tmp_path) == GOLDEN[name]


def test_golden_covers_every_bundled_scenario(scenarios_dir) -> None:
    assert set(GOLDEN) == {p.name for p in scenarios_dir.glob("*.json")} | {"<all-attack-types>"}
