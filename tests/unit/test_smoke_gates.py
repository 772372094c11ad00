"""The store, serve and obs smoke gates of ``benchmarks/perf/``, each
run against a store directory of the test's own.  The serve and obs
gates boot ``repro serve`` subprocesses on free localhost ports and
drain them before returning."""

import obs_smoke
import serve_smoke
import store_smoke


class TestStoreSmoke:
    def test_store_smoke(self, capsys, tmp_path):
        assert store_smoke.main(["--store", str(tmp_path / "smoke")]) == 0
        out = capsys.readouterr().out
        assert "store smoke OK" in out
        assert "byte-identical: yes" in out


class TestServeSmoke:
    def test_serve_smoke(self, capsys, tmp_path):
        assert serve_smoke.main(["--store", str(tmp_path / "smoke")]) == 0
        out = capsys.readouterr().out
        assert "serve smoke OK" in out
        assert "byte-identical to local run_experiment: yes" in out
        assert "post-restart resubmit deduplicated" in out


class TestObsSmoke:
    def test_obs_smoke(self, capsys, tmp_path):
        assert obs_smoke.main(["--store", str(tmp_path / "smoke")]) == 0
        out = capsys.readouterr().out
        assert "obs smoke OK" in out
        assert "prometheus exposition OK" in out
        assert "dashboard OK" in out
