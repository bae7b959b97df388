"""On-disk formats that must not move, and resume of stale journals.

Snapshots, sweep journals and the result cache outlive the code that
wrote them: a ``.snap`` restores bit-identically on a later release, a
journal's spec fingerprint decides whether ``--resume`` may continue it,
and a point's cache key decides whether a stored row is served.  The
pins below were computed before the kernel was reduced to one event
queue; they guard every existing checkpoint, journal and cache entry
against silent drift.  A journal whose spec names a key this release no
longer accepts (e.g. ``backend``) is a typed input defect, never a
traceback."""

import hashlib
import json

import pytest

from repro.apps import cacheloop
from repro.artifacts.snap import dump_snap
from repro.cli import sweep_main
from repro.core.modes import ReplayMode
from repro.harness import SweepJournal, SweepSpec, point_cache_key
from repro.harness.cache import repro_version
from repro.harness.checkpoint import platform_recipe
from repro.harness.experiments import (
    build_tg_platform,
    reference_run,
    translate_traces,
)
from repro.harness.journal import _spec_fingerprint
from repro.harness.parallel import expand_grid

BASE_SPEC = {"benchmark": "cacheloop", "cores": [1],
             "interconnects": ["ahb"], "app_params": {"iters": 10}}

#: sha256 of the quiescent .snap of TG-replayed cacheloop (iters=10,
#: 2 cores, AHB) captured at cycle 60 — mid-run, two pending wake-ups.
SNAP_SHA256 = \
    "5040033944a19a0adce5ec0e2a53a76d8e51a8f3dd674371c03ad1bf6f9e65d9"
#: Journal fingerprint of ``PIN_SPEC``.
SPEC_FINGERPRINT = "b4740ba1"
#: Cache key of ``PIN_SPEC``'s 2-core point at version "1.0".
POINT_CACHE_KEY = \
    "85dfdd709aa57e86f15c7c2ddefc23a7c80457158cebf996bca1c013562d7130"

PIN_SPEC = {"benchmark": "cacheloop", "cores": [1, 2],
            "interconnects": ["ahb"], "app_params": {"iters": 10}}


class TestFormatPins:

    def test_snap_bytes_are_pinned(self):
        _, collectors, _ = reference_run(cacheloop, 2, "ahb",
                                         {"iters": 10})
        programs = translate_traces(collectors, 2, ReplayMode.REACTIVE)
        platform = build_tg_platform(programs, 2, "ahb")
        platform.run(until=60)
        payload = platform.snapshot(platform_recipe(programs, 2, "ahb"))
        assert payload["cycle"] == 60 and len(payload["pending"]) == 2
        text = dump_snap(payload)
        assert hashlib.sha256(text.encode()).hexdigest() == SNAP_SHA256

    def test_spec_fingerprint_is_pinned(self):
        spec = SweepSpec.from_dict(PIN_SPEC)
        assert _spec_fingerprint(spec.to_dict()) == SPEC_FINGERPRINT

    def test_point_cache_key_is_pinned(self):
        point = expand_grid(SweepSpec.from_dict(PIN_SPEC))[1]
        assert point.n_cores == 2
        assert point.cache_key(version="1.0") == POINT_CACHE_KEY
        assert point_cache_key("cacheloop", 2, "ahb", "reactive",
                               {"iters": 10}, version="1.0") \
            == POINT_CACHE_KEY


class TestFingerprintSkew:

    def test_fault_fields_still_perturb_cache_key(self):
        kwargs = dict(benchmark="cacheloop", n_cores=2,
                      interconnect="ahb", mode="reactive",
                      version="1.0")
        plain = point_cache_key(**kwargs)
        faulted = point_cache_key(
            **kwargs,
            fault_spec={"slave_errors": [{"slave": "shared", "nth": 3}]})
        seeded = point_cache_key(**kwargs, fault_seed=7)
        assert len({plain, faulted, seeded}) == 3


class TestRetiredBackendKey:

    def test_spec_file_naming_backend_is_rejected(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(dict(BASE_SPEC, backend="classic")))
        code = sweep_main([str(spec_file), "--no-cache", "-j", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert "unknown sweep keys: ['backend']" in err
        assert "Traceback" not in err

    def test_resume_of_backend_journal_is_typed(self, tmp_path, capsys):
        data = dict(SweepSpec.from_dict(BASE_SPEC).to_dict(),
                    backend="fast")
        SweepJournal.create(tmp_path, data, 1, repro_version()).close()
        report = tmp_path / "diag.json"
        code = sweep_main(["--resume", str(tmp_path), "--no-cache",
                           "-j", "1", "--diagnostics-json", str(report)])
        err = capsys.readouterr().err
        assert code == 4
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-sweep: error:")
        assert "backend" in lines[0]
        assert "start a fresh sweep" in lines[0]
        diagnostics = json.loads(report.read_text())
        assert diagnostics["ok"] is False
        assert diagnostics["error"]["exit_code"] == 4
        assert "start a fresh sweep" in diagnostics["error"]["hint"]

    def test_mismatched_spec_file_still_refused(self, tmp_path, capsys):
        spec = SweepSpec.from_dict(BASE_SPEC)
        SweepJournal.create(tmp_path, spec.to_dict(), spec.points,
                            repro_version()).close()
        other = dict(BASE_SPEC, cores=[1, 2])
        spec_file = tmp_path / "other.json"
        spec_file.write_text(json.dumps(other))
        code = sweep_main([str(spec_file), "--no-cache", "-j", "1",
                           "--resume", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "different sweep spec" in err


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
