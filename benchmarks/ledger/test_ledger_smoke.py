"""Smoke test of the performance ledger: schema, names, coverage.

Runs ``python -m benchmarks.ledger --smoke`` once (every workload at a
twentieth of its size, about 11 s) and checks what came out.
"""

import json
import os
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
MAIN = os.path.join(LEDGER_DIR, "__main__.py")

WORKLOADS = ["dense-inproc", "dense-pool", "boilerplate-inproc",
             "selective-indexed", "edit-delta", "serve-http"]
END_TO_END = ["setup_s", "mb_per_s", "cpu_s_per_mb", "op_p50_ms",
              "op_p95_ms", "peak_rss_mb"]


def run(*arguments, **options):
    return subprocess.run([sys.executable, MAIN, *arguments], cwd=ROOT,
                          text=True, capture_output=True, **options)


@pytest.fixture(scope="module")
def manifest():
    completed = run("--manifest")
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    completed = run("--smoke", "--out", str(out), timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(out / "ledger.json", encoding="utf-8") as handle:
        return out, json.load(handle), completed.stdout


def test_manifest_is_the_committed_benchmark_json(manifest):
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        assert json.load(handle) == manifest
    assert set(manifest) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in manifest["workloads"]] == WORKLOADS
    assert [m["name"] for m in manifest["end_to_end"]] == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    names = [m["name"] for m in manifest["end_to_end"]
             + manifest["per_layer"]]
    assert len(names) == len(set(names))


def test_committed_ledger_carries_what_the_manifest_may_not(smoke,
                                                            manifest):
    # BENCHMARK.json holds exactly the driver's keys; the scale cut,
    # what each per-layer metric should move and the latest numbers
    # are in LEDGER.json, a ledger run's ledger.json copied in.
    _out, fresh, _stdout = smoke
    with open(os.path.join(LEDGER_DIR, "LEDGER.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed["catalog"] == fresh["catalog"]
    notes = committed["catalog"]
    assert 0 < notes["scale"] <= 1
    layer_names = [m["name"] for m in manifest["per_layer"]]
    assert list(notes["moves"]) == layer_names
    assert all(notes["moves"].values())
    assert {g["name"] for g in notes["gated_per_layer"]} <= set(layer_names)
    assert list(committed["workloads"]) == WORKLOADS
    for name, row in committed["workloads"].items():
        assert row["failed"] == 0, name
        assert list(row["end_to_end"]) == END_TO_END, name
        assert set(row["per_layer"]) == set(layer_names), name


def test_smoke_runs_every_workload_correctly(smoke, manifest):
    out, ledger, stdout = smoke
    assert list(ledger["workloads"]) == WORKLOADS
    assert set(ledger["fingerprint"]) == {
        "git_sha", "python", "nproc", "cpu_model", "seed",
        "PYTHONHASHSEED", "scale"}
    layer_names = {m["name"] for m in manifest["per_layer"]}
    for name, row in ledger["workloads"].items():
        assert row["failed"] == 0 and row["attempted"] > 0, name
        assert list(row["end_to_end"]) == END_TO_END, name
        assert all(runs and all(value > 0 for value in runs)
                   for runs in row["end_to_end"].values()), name
        assert set(row["per_layer"]) == layer_names, name
        # every metric is printed by name
        for metric in END_TO_END + sorted(layer_names):
            assert f"\n{metric} " in stdout, metric
        trace = json.loads((out / f"{name}.trace.json").read_text())
        assert trace["traceEvents"], name
        assert all(event["args"]["workload"] == name
                   for event in trace["traceEvents"])


def test_replay_accounts_for_an_in_process_pass(smoke):
    # ISSUE 11 asks for 0.85..1.15.  At 1/200 of the issue's sizes a
    # pass is 5-15 ms; twelve smoke runs gave 0.98..1.02 (dense),
    # 0.90..0.96 (selective) and 0.81..0.94 (boilerplate, where the
    # garbage collector's share differs between pass and replay).  A
    # tier-1 test must not flake on a noisy host, so the band here
    # only catches a replay that has stopped modelling the pass.
    _out, ledger, _stdout = smoke
    for name in ("dense-inproc", "boilerplate-inproc",
                 "selective-indexed"):
        coverage = ledger["workloads"][name]["per_layer"]["replay.coverage"]
        assert 0.7 <= coverage <= 1.3, (name, coverage)


def session_members(session: int):
    """Pids of the processes (ended-but-unreaped included) in a session."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rpartition(b")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(pid))
    return members


def test_result_line_holds_exactly_the_contract_keys():
    # dense-pool, in a session of its own: workers(2) publishes to shm,
    # which spawns multiprocessing's resource tracker; it used to end a
    # moment after the run, and the driver refuses a run that leaves a
    # process behind.
    process = subprocess.Popen(
        [sys.executable, MAIN, "--workload", "dense-pool", "--seed", "5",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    stdout, stderr = process.communicate(timeout=120)
    assert session_members(process.pid) == []
    assert process.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) and set(result["metrics"]) == set(
        END_TO_END)
    assert all(set(m) == {"value", "unit"}
               for m in result["metrics"].values())


def test_compare_flags_a_breach(smoke, tmp_path):
    out, ledger, _stdout = smoke
    same = run("--compare", str(out / "ledger.json"),
               str(out / "ledger.json"))
    assert same.returncode == 0, same.stdout
    slower = json.loads(json.dumps(ledger))
    runs = slower["workloads"]["dense-inproc"]["end_to_end"]["mb_per_s"]
    slower["workloads"]["dense-inproc"]["end_to_end"]["mb_per_s"] = [
        value / 2 for value in runs]
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = run("--compare", str(out / "ledger.json"), str(path))
    assert worse.returncode == 1
    assert "BREACH" in worse.stdout
    # The space leg of the index trade-off is per-layer in
    # BENCHMARK.json (two workloads have it) and gated all the same.
    fatter = json.loads(json.dumps(ledger))
    fatter["workloads"]["edit-delta"]["per_layer"][
        "index.bytes_per_text_byte"] *= 1.05
    path.write_text(json.dumps(fatter))
    worse = run("--compare", str(out / "ledger.json"), str(path))
    assert worse.returncode == 1
    assert [line.split()[:2] for line in worse.stdout.splitlines()
            if "BREACH" in line] == [
        ["edit-delta", "index.bytes_per_text_byte"]]
