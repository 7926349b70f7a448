"""Tests for the ``repro`` console entry point (`repro.cli`).

The contract under test, per docs/cli.md:

* **Stream shape** — every stdout line is one JSON object; data rows carry
  the subcommand's result-dataclass fields and no ``"event"`` key; skip
  rows and exactly one trailing summary row carry one.
* **Parity** — every sweep subcommand's rows, skips and cache counters
  equal the corresponding :class:`~repro.analysis.runner.ShardedRunner`
  sweep's, serial and pooled, because both run the same cell workers over
  the same family-major payloads through one driver.
* **Store reuse** — a second sweep against the same ``--store`` is warm:
  ``compile_hit_rate >= 0.95`` (the PR's acceptance bar).
* **Exit codes** — 0 success, 1 ``verify --check`` failure, 2 usage
  errors (unknown scheme/family, ``--jobs`` below 1, an unwritable
  ``--store``), with the diagnostic
  on stderr so stdout stays JSONL-pure; an exception inside a cell is a
  bug and propagates instead.

Every flag documented in docs/cli.md is exercised somewhere in this file
(``tests/test_docs.py`` meta-checks that claim).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import ShardedRunner, VerifyCellResult
from repro.cli._output import jsonable
from repro.cli.main import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from repro.sim.registry import resolve_families, resolve_schemes

FAST = ["--registry", "small", "--family", "cycle", "--family", "petersen"]
TABLES = ["--scheme", "tables-lowest-port", "--scheme", "tables-highest-port"]


def _run(capsys, argv):
    """Invoke ``main`` in-process; returns ``(code, data, meta, stderr_rows)``."""
    code = main(argv)
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    err = [json.loads(line) for line in captured.err.splitlines()]
    data = [row for row in rows if "event" not in row]
    meta = [row for row in rows if "event" in row]
    return code, data, meta, err


# ----------------------------------------------------------------------
# stream shape
# ----------------------------------------------------------------------
def test_sweep_streams_jsonl_with_one_trailing_summary(tmp_path, capsys):
    code, data, meta, err = _run(
        capsys, ["sweep", "--store", str(tmp_path), "--seed", "0"] + FAST + TABLES
    )
    assert code == EXIT_OK
    assert err == []
    assert len(data) == 4  # 2 schemes x 2 families, none skipped
    for row in data:
        assert set(row) == {
            "scheme", "family", "n", "kind", "mode", "all_delivered", "steps",
        }
        assert row["all_delivered"] is True
    assert meta[-1]["event"] == "summary"
    assert meta[-1]["command"] == "sweep"
    assert meta[-1]["cells"] == 4
    assert meta[-1]["store"] == str(tmp_path)
    assert [m for m in meta if m["event"] == "summary"] == [meta[-1]]


def test_partial_schemes_stream_skip_rows(tmp_path, capsys):
    # ecube only applies to hypercubes: on cycle/petersen it must skip,
    # not error, and the summary must count the skips.
    code, data, meta, err = _run(
        capsys,
        ["simulate", "--store", str(tmp_path), "--scheme", "ecube"] + FAST,
    )
    assert code == EXIT_OK
    skips = [m for m in meta if m["event"] == "skip"]
    assert {(s["scheme"], s["family"]) for s in skips} == {
        ("ecube", "cycle"),
        ("ecube", "petersen"),
    }
    assert all(s["reason"] for s in skips)
    assert meta[-1]["skipped"] == 2
    assert data == []


# ----------------------------------------------------------------------
# parity with the Python API
# ----------------------------------------------------------------------
#: CLI subcommand -> (ShardedRunner method, its non-default keyword
#: arguments).  Every other option runs at its default on both sides, so
#: the CLI's defaults are checked against the API's too.
PARITY = {
    "compile": ("compile_sweep", {}),
    "sweep": ("program_sweep", {}),
    "simulate": ("conformance_suite", {}),
    "verify": ("verify_sweep", {}),
    "resilience": ("resilience_sweep", {}),
    "churn": ("churn_sweep", {"verify": "static"}),
    "flow": ("flow_sweep", {}),
}

#: Wall-clock fields: the only ones allowed to differ between two runs.
TIMING_FIELDS = {"delta_seconds"}


def _canonical_row(row: dict) -> str:
    """One data row as sorted JSON (NaN-safe equality), timings dropped."""
    kept = {key: value for key, value in row.items() if key not in TIMING_FIELDS}
    return json.dumps(kept, sort_keys=True, default=jsonable)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", sorted(PARITY))
def test_cli_rows_field_equal_to_sharded_runner(tmp_path, capsys, command, jobs):
    # ecube refuses cycle and petersen, so every command has skip rows too.
    wanted_schemes = ["tables-lowest-port", "landmark-rewriting", "ecube"]
    code, data, meta, _ = _run(
        capsys,
        [command, "--store", str(tmp_path / "cli"), "--jobs", str(jobs)]
        + FAST
        + [flag for name in wanted_schemes for flag in ("--scheme", name)],
    )
    assert code == EXIT_OK
    method, options = PARITY[command]
    runner = ShardedRunner(cache_dir=tmp_path / "api", processes=jobs)
    results, skipped, stats = getattr(runner, method)(
        schemes=resolve_schemes(wanted_schemes, seed=0),
        families=resolve_families(["cycle", "petersen"], size="small", seed=0),
        **options,
    )
    assert data
    assert [_canonical_row(row) for row in data] == [
        _canonical_row(dataclasses.asdict(result)) for result in results
    ]
    skips = [(m["scheme"], m["family"]) for m in meta if m["event"] == "skip"]
    assert skips == skipped == [("ecube", "cycle"), ("ecube", "petersen")]
    summary = meta[-1]
    assert summary["event"] == "summary"
    assert (summary["cells"], summary["skipped"]) == (len(data), len(skipped))
    assert (summary["compile_hits"], summary["compile_misses"], summary["degraded"]) == (
        stats.compile_hits,
        stats.compile_misses,
        stats.degraded,
    )
    if jobs == 1:
        assert (summary["hits"], summary["misses"]) == (stats.hits, stats.misses)
    else:
        # Pooled cells of one family race for its shared distance
        # matrices, so which lookup misses first varies between runs; the
        # number of lookups does not.
        assert summary["hits"] + summary["misses"] == stats.hits + stats.misses


def test_pooled_jobs_stream_the_same_rows_in_payload_order(tmp_path, capsys):
    argv_tail = FAST + TABLES
    code, serial, _, _ = _run(
        capsys, ["verify", "--store", str(tmp_path / "a"), "--jobs", "1"] + argv_tail
    )
    assert code == EXIT_OK
    code, pooled, _, _ = _run(
        capsys, ["verify", "--store", str(tmp_path / "b"), "--jobs", "2"] + argv_tail
    )
    assert code == EXIT_OK
    assert pooled == serial


# ----------------------------------------------------------------------
# the shared store
# ----------------------------------------------------------------------
def test_second_sweep_is_warm(tmp_path, capsys):
    argv = ["sweep", "--store", str(tmp_path)] + FAST + TABLES
    _, _, cold_meta, _ = _run(capsys, argv)
    assert cold_meta[-1]["compile_hit_rate"] < 1.0
    code, data, warm_meta, _ = _run(capsys, argv)
    assert code == EXIT_OK
    assert len(data) == 4
    assert warm_meta[-1]["compile_hit_rate"] >= 0.95
    assert warm_meta[-1]["compile_misses"] == 0
    assert warm_meta[-1]["degraded"] == 0


def test_compile_rows_expose_content_addresses(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys,
        ["compile", "--store", str(tmp_path), "--registry", "small",
         "--family", "petersen", "--scheme", "tables-lowest-port",
         "--scheme", "tables-highest-port", "--scheme", "tables-lowest-neighbor"],
    )
    assert code == EXIT_OK
    assert len(data) == 3
    # All three tie-breaks lower identically on petersen: one shared object.
    assert len({row["object_id"] for row in data}) == 1
    path = (
        Path(tmp_path) / "objects" / data[0]["object_id"][:2]
        / f"{data[0]['object_id']}.rpg"
    )
    assert path.is_file()
    assert path.stat().st_size == data[0]["nbytes"]


def test_store_ls_info_gc_cycle(tmp_path, capsys):
    _run(capsys, ["compile", "--store", str(tmp_path)] + FAST + TABLES)
    code, records, _, _ = _run(capsys, ["store", "ls", "--store", str(tmp_path)])
    assert code == EXIT_OK
    assert len(records) == 4  # one manifest record per cell key
    assert all(record["object_id"] for record in records)
    code, (info,), _, _ = _run(capsys, ["store", "info", "--store", str(tmp_path)])
    assert code == EXIT_OK
    assert info["records"] == 4
    assert info["objects"] >= 1
    assert info["object_bytes"] > 0
    code, (gc_row,), _, _ = _run(
        capsys, ["store", "gc", "--store", str(tmp_path), "--max-bytes", "0"]
    )
    assert code == EXIT_OK
    assert gc_row["evicted_objects"] == info["objects"]
    assert gc_row["live_objects"] == 0
    assert gc_row["store"] == str(tmp_path)
    code, (after,), _, _ = _run(capsys, ["store", "info", "--store", str(tmp_path)])
    assert after["objects"] == 0 and after["records"] == 0


def test_store_env_var_is_the_default_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "from-env"))
    code, _, meta, _ = _run(
        capsys, ["compile", "--family", "cycle", "--scheme", "tables-lowest-port"]
    )
    assert code == EXIT_OK
    assert meta[-1]["store"] == str(tmp_path / "from-env")
    assert (tmp_path / "from-env" / "manifest.jsonl").is_file()


# ----------------------------------------------------------------------
# the other sweeps: every documented flag gets exercised
# ----------------------------------------------------------------------
def test_verify_rows_and_check_pass(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys, ["verify", "--check", "--store", str(tmp_path)] + FAST + TABLES
    )
    assert code == EXIT_OK  # registry schemes deliver everywhere
    assert len(data) == 4
    for row in data:
        assert row["verified"] and row["all_delivered"] and not row["issues"]
        assert row["max_finite_hops"] >= 1


def test_verify_check_fails_on_a_non_delivering_cell(tmp_path, capsys, monkeypatch):
    import repro.analysis.runner as runner_mod

    failing = VerifyCellResult(
        scheme="tables-lowest-port", family="cycle", n=3, kind="next_hop",
        verified=True, all_delivered=False, delivered=5, livelocked=4,
        misdelivered=0, dropped=0, max_finite_hops=2, issues=("livelock",),
    )
    monkeypatch.setattr(
        runner_mod, "_verify_cell_worker", lambda payload: ("ok", failing, 0, 0, 0, 1, 0)
    )
    code, data, _, _ = _run(
        capsys,
        ["verify", "--check", "--store", str(tmp_path), "--family", "cycle",
         "--scheme", "tables-lowest-port"],
    )
    assert code == EXIT_CHECK_FAILED
    assert data[0]["issues"] == ["livelock"]


def test_resilience_flags(tmp_path, capsys):
    code, data, meta, _ = _run(
        capsys,
        ["resilience", "--store", str(tmp_path), "--registry", "small",
         "--family", "cycle", "--scheme", "tables-lowest-port",
         "--edge-k", "1", "--node-k", "1", "--per-k", "1",
         "--flow", "uniform", "--demand-seed", "1"],
    )
    assert code == EXIT_OK
    assert data  # one row per fault scenario
    for row in data:
        assert row["scheme"] == "tables-lowest-port"
        assert row["family"] == "cycle"
    assert meta[-1]["command"] == "resilience"


def test_churn_flags_and_default_scheme_subset(tmp_path, capsys):
    code, data, meta, _ = _run(
        capsys,
        ["churn", "--store", str(tmp_path), "--registry", "small",
         "--family", "cycle", "--steps", "2", "--flips-per-step", "1",
         "--no-verify", "--flow", "uniform", "--demand-seed", "0", "--seed", "1"],
    )
    assert code == EXIT_OK
    assert data
    # Without --scheme, churn defaults to the full-table schemes only.
    assert {row["scheme"] for row in data} <= {
        "tables-lowest-port", "tables-highest-port", "tables-lowest-neighbor",
    }
    assert meta[-1]["command"] == "churn"


def test_churn_default_check_is_the_static_proof(tmp_path, capsys, monkeypatch):
    from repro.routing.tables import ShortestPathTableScheme

    store = ["--store", str(tmp_path), "--scheme", "tables-lowest-port"] + FAST
    code, _, _, _ = _run(capsys, ["compile"] + store)
    assert code == EXIT_OK

    def no_build(self, graph):
        raise AssertionError("churn over a primed store must not build a scheme")

    monkeypatch.setattr(ShortestPathTableScheme, "build", no_build)
    code, data, _, _ = _run(capsys, ["churn"] + store)
    assert code == EXIT_OK
    patched = [row for row in data if row["mode"] == "patched"]
    assert patched
    for row in patched:
        assert row["outcome_equal"] is True
        assert row["recompile_seconds"] is None


def test_flow_flags(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys,
        ["flow", "--store", str(tmp_path), "--family", "cycle",
         "--scheme", "tables-lowest-port", "--model", "uniform",
         "--model", "zipf", "--demand-seed", "2", "--total", "1000"],
    )
    assert code == EXIT_OK
    assert {row["demand_model"] for row in data} == {"uniform", "zipf"}


# ----------------------------------------------------------------------
# exit codes and error rows
# ----------------------------------------------------------------------
def test_unknown_scheme_is_a_usage_error_on_stderr(tmp_path, capsys):
    code, data, meta, err = _run(
        capsys, ["sweep", "--store", str(tmp_path), "--scheme", "no-such-scheme"]
    )
    assert code == EXIT_USAGE
    assert data == [] and meta == []  # stdout stays JSONL-pure and empty
    assert err[0]["event"] == "error"
    assert "no-such-scheme" in err[0]["message"]
    assert "choices" in err[0]["message"]


def test_unknown_family_is_a_usage_error(tmp_path, capsys):
    code, _, _, err = _run(
        capsys, ["verify", "--store", str(tmp_path), "--family", "moebius"]
    )
    assert code == EXIT_USAGE
    assert "moebius" in err[0]["message"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    code, data, meta, err = _run(
        capsys, ["sweep", "--store", str(tmp_path), "--jobs", jobs] + FAST
    )
    assert code == EXIT_USAGE
    assert data == [] and meta == []
    assert len(err) == 1
    assert err[0]["event"] == "error"
    assert "--jobs" in err[0]["message"]


def test_unwritable_store_is_a_usage_error(tmp_path, capsys):
    # A regular file where the store's parent directory should be: the
    # sweep must refuse up front, not die mid-cell in save_program.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code, data, meta, err = _run(
        capsys,
        ["sweep", "--registry", "small", "--family", "cycle",
         "--store", str(blocker / "store")],
    )
    assert code == EXIT_USAGE
    assert data == [] and meta == []
    assert len(err) == 1
    assert err[0]["event"] == "error"
    assert "not a writable directory" in err[0]["message"]
    assert str(blocker / "store") in err[0]["message"]


def test_a_cells_key_error_is_a_bug_not_a_usage_error(tmp_path, capsys, monkeypatch):
    import repro.analysis.runner as runner_mod

    def broken_cell(payload):
        raise KeyError("no arc (3, 7)")

    monkeypatch.setattr(runner_mod, "_program_cell_worker", broken_cell)
    with pytest.raises(KeyError, match="no arc"):
        main(["sweep", "--store", str(tmp_path)] + FAST)
    assert capsys.readouterr().err == ""


def test_argparse_rejects_unknown_subcommands_with_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["frobnicate"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# the installed surface
# ----------------------------------------------------------------------
def test_python_m_repro_cli_smoke(tmp_path):
    """`python -m repro.cli` works end to end in a fresh interpreter."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "compile", "--store", str(tmp_path),
         "--family", "petersen", "--scheme", "tables-lowest-port"],
        capture_output=True, text=True, env=env, cwd=repo, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert rows[-1]["event"] == "summary"
    assert any("object_id" in row for row in rows)
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "store", "info", "--store", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=repo, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    info = json.loads(run.stdout.splitlines()[0])
    assert info["programs"] == 1


def test_console_script_is_declared():
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    assert 'repro = "repro.cli.main:main"' in pyproject
