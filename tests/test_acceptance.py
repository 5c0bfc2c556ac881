"""End-to-end acceptance criteria.

Each test prints one summary line, [PASS] or [FAIL], with the measured
numbers, then asserts. Criteria cover the replay-attack reproduction, the
differential byte-localization workflow, codec and arbitration soundness
against independent oracles, radio isolation and hopping statistics, whole
run determinism, wire-format integrity, and the steering enable gate.
"""

import random
import time
from pathlib import Path

import pytest
from conftest import SCENARIOS_DIR

from stave import (
    ArbitrationCollisionError,
    CanFrame,
    CaptureLog,
    DecapsulationError,
    FramingError,
    NodeHandle,
    RadioConfig,
    RadioMedium,
    RadioPacket,
    SimClock,
    Tap,
    arbitrate,
    channel_occupancy,
    crc16_ccitt_false,
    decapsulate,
    decode_id,
    encode_id,
    hop_channel,
    load_scenario,
    run_scenario,
    validate_scenario,
)

JOY = "0x0CFF1028"


@pytest.fixture
def report(capsys):
    """Print one visible pass/fail line for a criterion, then assert it."""
    def _report(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
        assert ok, f"criterion {number}: {detail}"
    return _report


def test_criterion_1_replay_attack_reproduction(report) -> None:
    t0 = time.perf_counter()
    baseline = run_scenario(load_scenario(SCENARIOS_DIR / "baseline.json"))
    t1 = time.perf_counter()
    attacked = run_scenario(load_scenario(SCENARIOS_DIR / "replay_reverse_steer.json"))
    t2 = time.perf_counter()

    base_angle = baseline.summary["observables"]["wheel_angle_deg"]
    attack_angle = attacked.summary["observables"]["wheel_angle_deg"]
    base_time, attack_time = t1 - t0, t2 - t1
    ok = (abs(base_angle - (-28.0)) <= 0.5
          and abs(attack_angle - 28.0) <= 0.5
          and base_time < 5.0 and attack_time < 5.0)
    report(1, ok,
           f"baseline wheel {base_angle:+.3f} deg (want -28 +/- 0.5), "
           f"replayed {attack_angle:+.3f} deg (want +28 +/- 0.5), "
           f"runtimes {base_time:.2f}s/{attack_time:.2f}s (limit 5s)")


def _diff_scenario(seed: int, script: list[dict]) -> dict:
    # balanced 2 s windows: every periodic id lands the same number of
    # frames in each, so only scripted bytes can move
    return {
        "schema": "stave-scenario/1",
        "seed": seed,
        "duration_s": 4.2,
        "fleet": {"steer_enable": False},
        "joystick_script": script,
        "attacks": [
            {"type": "sniff", "start_s": 0.05, "duration_s": 2.0, "save": "pre",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
            {"type": "sniff", "start_s": 2.05, "duration_s": 2.0, "save": "post",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
            {"type": "diff", "start_s": 4.1, "pre": "pre", "post": "post",
             "save": "d"},
        ],
    }


def test_criterion_2_differential_identification(report) -> None:
    rng = random.Random(20260819)
    runs = 50
    true_pos = false_pos = false_neg = 0
    clean = True
    for _ in range(runs):
        script = [{"t_s": 0.0, "x": 125, "button": 0}]
        with_button = rng.random() < 0.5
        button_used = False
        t = 2.1
        for _ in range(rng.randint(2, 5)):
            x = rng.choice([v for v in range(251) if v != 125])
            button = rng.randint(0, 1) if with_button else 0
            button_used = button_used or button != 0
            script.append({"t_s": round(t, 3), "x": x, "button": button})
            t += rng.uniform(0.15, 0.4)

        scenario = validate_scenario(_diff_scenario(rng.randrange(2**32), script))
        result = run_scenario(scenario)
        diff = result.reports["d"]

        expected = {(JOY, 0)} | ({(JOY, 2)} if button_used else set())
        got = {(entry["can_id"], byte["offset"])
               for entry in diff["flagged"] for byte in entry["bytes"]}
        true_pos += len(got & expected)
        false_pos += len(got - expected)
        false_neg += len(expected - got)
        if diff["rate_changes"] or diff["ids_only_in_pre"] or diff["ids_only_in_post"]:
            clean = False

    precision = true_pos / (true_pos + false_pos) if true_pos + false_pos else 0.0
    recall = true_pos / (true_pos + false_neg) if true_pos + false_neg else 0.0
    ok = precision == 1.0 and recall == 1.0 and clean
    report(2, ok,
           f"{runs} randomized runs, {true_pos} scripted byte offsets flagged, "
           f"{false_pos} spurious, {false_neg} missed "
           f"(precision {precision:.3f}, recall {recall:.3f})")


def test_criterion_3_codec_soundness(report) -> None:
    def slicer(can_id: int) -> tuple[int, int, int | None, int]:
        bits = format(can_id, "029b")
        priority = int(bits[0:3], 2)
        edp, dp = int(bits[3]), int(bits[4])
        pf = int(bits[5:13], 2)
        ps = int(bits[13:21], 2)
        sa = int(bits[21:29], 2)
        pgn = (edp << 17) | (dp << 16) | (pf << 8) | (ps if pf >= 240 else 0)
        dest = ps if pf < 240 else None
        return priority, pgn, dest, sa

    rng = random.Random(3)
    failures = 0
    for _ in range(10**6):
        can_id = rng.getrandbits(29)
        if encode_id(decode_id(can_id)) != can_id:
            failures += 1

    worked_ok = True
    for can_id, want in ((0x18EF0021, (6, 0xEF00, 0x00, 0x21)),
                         (0x0CF00400, (3, 0xF004, None, 0x00))):
        addr = decode_id(can_id)
        got = (addr.priority, addr.pgn, addr.destination_address, addr.source_address)
        worked_ok = worked_ok and got == want == slicer(can_id)

    ok = failures == 0 and worked_ok
    report(3, ok,
           f"10^6 identifier roundtrips, {failures} failures; "
           f"worked decompositions match the bit-slicing oracle: {worked_ok}")


def test_criterion_4_arbitration_oracle(report) -> None:
    rng = random.Random(4)
    mismatches = 0
    trials = 10_000
    for _ in range(trials):
        k = rng.randint(1, 24)
        ids = rng.sample(range(1 << 29), k)
        pending = [(NodeHandle(node_id=i, name=f"n{i}"), CanFrame(can_id, b""))
                   for i, can_id in enumerate(ids)]
        _, winner = arbitrate(pending)
        if winner.can_id != min(ids):
            mismatches += 1

    try:
        arbitrate([(NodeHandle(node_id=0, name="a"), CanFrame(0x100, b"")),
                   (NodeHandle(node_id=1, name="b"), CanFrame(0x100, b""))])
        collision_raised = False
    except ArbitrationCollisionError:
        collision_raised = True

    ok = mismatches == 0 and collision_raised
    report(4, ok,
           f"10^4 pending sets, {mismatches} deviations from the numeric minimum; "
           f"same-id collision raised: {collision_raised}")


def test_criterion_5_faraday_isolation(report) -> None:
    scenario = validate_scenario({
        "schema": "stave-scenario/1",
        "seed": 11,
        "duration_s": 10.0,
        "radio": {"faraday_mode": True},
        "joystick_script": [{"t_s": 0.0, "x": 25}],
        "taps": [
            {"name": "inside", "channels": "all", "inside_faraday": True},
            {"name": "outside", "channels": "all", "inside_faraday": False},
        ],
        "outputs": {"captures": {"inside": "inside.log", "outside": "outside.log"}},
    })
    result = run_scenario(scenario)
    sent = result.summary["radio"]["packets_sent"]
    inside = len(result.captures["inside"])
    outside = len(result.captures["outside"])
    ok = outside == 0 and inside == sent and sent > 0
    report(5, ok,
           f"10 s run, {sent} packets on the air: inside tap heard {inside} "
           f"(100%), outside tap heard {outside} (want 0)")


def test_criterion_6_frequency_hopping(report) -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=7)
    medium = RadioMedium(SimClock(), config, rng=random.Random(0))
    medium.add_tap(Tap("ears", channels={5})).keep(eavesdropper := CaptureLog())
    medium.add_tap(Tap("air")).keep(wideband := CaptureLog())
    frame = CanFrame(0x0CFF1028, bytes((25, 125, 0, 255, 255, 255, 255, 255)))
    n = 100_000
    for seq in range(n):
        seq &= 0xFFFF
        medium.transmit(RadioPacket(hop_channel(config, seq), seq, frame))
    fraction = len(eavesdropper) / n

    flat_config = RadioConfig(num_channels=16, hopping=False)
    flat_medium = RadioMedium(SimClock(), flat_config, rng=random.Random(0))
    flat_medium.add_tap(Tap("air")).keep(flat_tap := CaptureLog())
    for seq in range(2_000):
        flat_medium.transmit(RadioPacket(hop_channel(flat_config, seq), seq, frame))
    occupancy = channel_occupancy(flat_tap, "air")["channels"]

    ok = (abs(fraction - 1 / 16) <= 0.02
          and len(wideband) == n
          and occupancy == [{"channel": 0, "count": 2_000}])
    report(6, ok,
           f"hopping: single-channel tap saw {fraction:.4f} of 10^5 packets "
           f"(want 1/16 = 0.0625 +/- 0.02), all-band tap saw {len(wideband)}; "
           f"hopping off: occupancy peaks only at {occupancy}")


def test_criterion_7_determinism(report, tmp_path) -> None:
    fixtures = sorted(SCENARIOS_DIR.glob("*.json"))
    compared = 0
    mismatched: list[str] = []
    for fixture in fixtures:
        scenario = load_scenario(fixture)
        dirs = (tmp_path / f"{fixture.stem}-a", tmp_path / f"{fixture.stem}-b")
        for out_dir in dirs:
            run_scenario(scenario, out_dir=out_dir)
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        if files_a != files_b:
            mismatched.append(f"{fixture.stem}: differing file sets")
            continue
        for rel in files_a:
            compared += 1
            if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
                mismatched.append(f"{fixture.stem}/{rel}")

    ok = not mismatched and compared > 0
    report(7, ok,
           f"{len(fixtures)} scenarios run twice, {compared} output files "
           f"byte-identical" + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_8_encapsulation_integrity(report) -> None:
    rng = random.Random(8)
    roundtrip_failures = 0
    n = 100_000
    for _ in range(n):
        frame = CanFrame(rng.getrandbits(29), rng.randbytes(rng.randint(0, 8)))
        channel = rng.randrange(256)
        seq = rng.randrange(1 << 16)
        packet = decapsulate(RadioPacket(channel, seq, frame).to_bytes())
        if packet.frame != frame or packet.channel != channel or packet.seq != seq:
            roundtrip_failures += 1

    buf = RadioPacket(3, 0xBEEF, CanFrame(0x0CFF1028, bytes(range(8)))).to_bytes()
    undetected = 0
    framing = integrity = 0
    for bit in range(len(buf) * 8):
        corrupted = bytearray(buf)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            decapsulate(bytes(corrupted))
            undetected += 1
        except FramingError:
            framing += 1
        except DecapsulationError:
            integrity += 1

    check = crc16_ccitt_false(b"123456789")
    ok = roundtrip_failures == 0 and undetected == 0 and check == 0x29B1
    report(8, ok,
           f"10^5 packet roundtrips, {roundtrip_failures} failures; "
           f"{len(buf) * 8} single-bit flips all detected "
           f"({framing} framing, {integrity} integrity, {undetected} missed); "
           f"crc16('123456789') = 0x{check:04X} (want 0x29B1)")


def test_criterion_9_enable_gate(report) -> None:
    rng = random.Random(9)
    runs = 100
    nonzero = 0
    for _ in range(runs):
        times = sorted(rng.sample(range(0, 1900, 10), rng.randint(0, 6)))
        script = [{"t_s": ms / 1000, "x": rng.randrange(251),
                   "y": rng.randrange(251), "button": rng.randint(0, 1)}
                  for ms in times]
        scenario = validate_scenario({
            "schema": "stave-scenario/1",
            "seed": rng.randrange(2**32),
            "duration_s": 2.0,
            "fleet": {"steer_enable": False},
            "joystick_script": script,
        })
        result = run_scenario(scenario)
        if result.fleet.observables().wheel_angle_deg != 0.0:
            nonzero += 1

    ok = nonzero == 0
    report(9, ok,
           f"{runs} random joystick scripts with the enable line low: "
           f"{runs - nonzero} runs ended at exactly 0.0 deg, {nonzero} moved")
