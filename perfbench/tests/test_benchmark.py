"""The benchmark's own tests: its schema, its manifest, and a smoke run of every check.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MANIFEST = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout, out.stderr


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- schema ---------------------------------------------------------------------

def test_benchmark_json_has_exactly_the_required_keys():
    assert sorted(SPEC) == sorted(["command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"])
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") \
            and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_manifest_matches_benchmark_json_and_code():
    import fleet
    assert sorted(MANIFEST["workloads"]) == sorted(WORKLOADS)
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    unbounded = MANIFEST["end_to_end"]["unbounded"]
    assert [n for n in MANIFEST["end_to_end"] if n != "unbounded"] == e2e
    for name in e2e:
        assert sorted(MANIFEST["end_to_end"][name]) == sorted(WORKLOADS)
    assert list(MANIFEST["per_layer"]) == [m["name"]
                                           for m in SPEC["per_layer"]]
    for moves in MANIFEST["per_layer"].values():
        for workload, metric in moves:
            assert workload in WORKLOADS
            assert metric in e2e or (metric in unbounded and metric != "why")
    ingest = MANIFEST["workloads"]["ingest"]["sizes"]
    assert ingest["segment_close_every_root_ingests"] == fleet.PER_SEGMENT
    assert ingest["state_push_every"] == fleet.STATE_EVERY
    assert ingest["traced_pushes_per_connection"] % ingest["relay_batch"] == 0
    assert ingest["traced_pushes_per_connection"] == fleet.TRACED_PUSHES
    sizes = fleet.sizes(smoke=False)
    assert (ingest["latency_payloads"], ingest["state_payloads"]) == \
        (sizes["latency"], sizes["states"])
    analytics = MANIFEST["workloads"]["analytics"]["sizes"]
    assert analytics["compact_every_commits"] == fleet.COMPACT_EVERY
    assert analytics["prefilled_segments_per_source"] == fleet.EPOCHS
    assert analytics["prefilled_sources"] == len(fleet.PREFILL_SOURCES)
    assert analytics["queries"] == len(fleet.QUERIES)


def test_run_budget_fits():
    # A full measurement is 4 + 22 runs per workload within 3420 s; a
    # run is its measured seconds plus at most 15 s of set-up and checks.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 15) <= 3420


def test_relay_runs_with_the_program_defaults():
    import inspect
    from repro.service.relay import RelayServer, RelayService
    relay = MANIFEST["workloads"]["ingest"]["sizes"]
    assert relay["relay_batch"] == \
        inspect.signature(RelayService).parameters["batch"].default
    assert relay["relay_flush_interval_s"] == \
        inspect.signature(RelayServer).parameters["flush_interval"].default


def test_kept_digests_cover_the_set_and_agree_with_the_pins():
    import capture
    kept = json.loads((BENCH / "digests.json").read_text())
    expected = {item[0] for item in capture.CAPTURE_SET} | {
        item[0] + ":state" for item in capture.CAPTURE_SET if item[3]}
    assert set(kept["full"]) == expected == set(kept["smoke"])
    pins = capture.read_pins(ROOT)
    assert set(capture.PINS) <= expected
    for item, pin in capture.PINS.items():
        assert kept["full"][item] == pins[pin], item


def test_host_speed_probes_and_their_cleanup(tmp_path):
    import measure
    speed = measure.HostSpeed()
    speed.sample(3)
    assert speed.scale > 0 and len(speed.probes) == 3
    echo = measure.Echo()
    syncs = measure.SyncedAppends(tmp_path / "synced")
    try:
        fleet = measure.HostSpeed(echo, syncs)
        fleet.sample(2)
        assert len(fleet.round_trips) == len(fleet.synced) == 2
        assert fleet.scale > 0
        assert "round trip" in fleet.describe()
        assert "synced append" in fleet.describe()
    finally:
        syncs.close()
        echo.close()
    assert echo.proc.returncode == 0
    assert not (tmp_path / "synced").exists()


def test_peak_rss_is_the_process_own():
    # A child of a large parent must not report the parent's peak.
    code = ("import sys; sys.path.insert(0, 'perfbench'); import measure; "
            "print(measure.peak_rss_mb())")
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 48.0
    del ballast


# -- smoke runs: every check and every negative case ---------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_end_to_end_metric(workload):
    code, stdout, stderr = run("--workload", workload, "--seed", "2006",
                               "--seconds", "1.5", "--trace", "0", "--smoke")
    assert code == 0, stdout + stderr
    result = result_of(stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    code, stdout, stderr = run("--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", "1", "--smoke")
    assert code == 0, stdout + stderr
    result = result_of(stdout)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    stem = ROOT / ".perfbench" / "trace" / f"{workload}-seed7"
    assert Path(f"{stem}.spans.jsonl").stat().st_size > 0
    from repro.core.profileset import ProfileSet
    assert len(ProfileSet.load_path(f"{stem}.ospb")) > 0


def test_traced_ingest_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, stdout, stderr = run("--workload", "ingest", "--seed", "11",
                                   "--seconds", "1", "--trace", "1",
                                   "--smoke")
        assert code == 0, stdout + stderr
        metrics = result_of(stdout)["metrics"]
        counts.append({name: metrics[name]["value"] for name in (
            "store.segments_closed", "warehouse.commits",
            "durable.fsyncs.warehouse", "durable.fsyncs.relay",
            "relay.forward_batches")})
    assert counts[0] == counts[1]
    assert counts[0]["store.segments_closed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_case_trips_the_check(workload):
    code, stdout, _ = run("--workload", workload, "--seed", "2006",
                          "--seconds", "1", "--trace", "0", "--smoke",
                          "--negative")
    assert code == 1
    assert not result_of(stdout)["correct"]
    assert "check failed" in stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout, _ = run("--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not stdout.strip()
