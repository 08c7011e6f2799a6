"""``python -m repro.serving run --out``: the artifact is the report."""

import hashlib
import json

from repro.serving import cli


def test_run_out_writes_the_report(tmp_path, monkeypatch, capsys):
    reports = []
    simulate = cli.simulate_serving

    def _recording(*args, **kwargs):
        reports.append(simulate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "simulate_serving", _recording)
    out = tmp_path / "nested" / "report.json"
    assert cli.main(["run", "--requests", "20", "--out", str(out)]) == 0
    assert f"report: {out}" in capsys.readouterr().out

    [report] = reports
    written = json.loads(out.read_text())
    assert written == json.loads(json.dumps(report.to_dict()))
    assert set(written) == set(report.payload) | {"counters", "manifest"}
    payload = {k: v for k, v in written.items()
               if k not in ("counters", "manifest")}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == report.digest()
