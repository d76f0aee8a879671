import json
from pathlib import Path

import pytest

from codedmr.cli import main

DATA = Path(__file__).parent / "data"
FANO_MATRIX = str(DATA / "fano_matrix.txt")
FANO_COVER = str(DATA / "fano_cover.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_man_5_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "man", "--K", "5", "--r", "2",
            "--Q", "5", "--T", "8",
        )
        assert code == 0
        assert "load: 2/5 = 0.4000" in out
        assert "verdict: ok" in out

    def test_fano_balanced_audit(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "fano", "--Q", "14", "--T", "16",
            "--plan", "balanced", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["reduce_ok"]
        assert payload["audit"]["balanced"]
        per_server = payload["audit"]["per_server"]
        # 2 S beta T / K = 2*7*2*16/7 = 64 bytes each, half per kind
        assert all(
            v["coded_bytes"] == 32 and v["uncoded_bytes"] == 32
            for v in per_server.values()
        )

    def test_unknown_construction_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--construction", "nosuch"])
        assert exc.value.code == 2

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--construction", "man")
        assert code == 2
        assert "needs" in err

    def test_straggler_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "man", "--K", "5", "--r", "2",
            "--Q", "20", "--T", "4", "--stragglers", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 4
        assert payload["load"]["fraction"] == "1/2"

    def test_artifacts_written(self, capsys, tmp_path):
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(
            capsys, "run", "--construction", "man", "--K", "4", "--r", "2",
            "--Q", "4", "--T", "4", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "transcript.bin").exists()
        assert (out_dir / "summary.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ok"]

    def test_balanced_run_writes_audit_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(
            capsys, "run", "--construction", "fano", "--Q", "7", "--T", "4",
            "--plan", "balanced", "--out", str(out_dir),
        )
        assert code == 0
        audit = (out_dir / "audit.csv").read_text().splitlines()
        assert audit[0] == "server,coded_bytes,uncoded_bytes"
        assert len(audit) == 8
        assert (out_dir / "plan.json").exists()

    def test_byte_stable_summaries(self, capsys, tmp_path):
        argv = [
            "run", "--construction", "man", "--K", "4", "--r", "2",
            "--Q", "4", "--T", "4", "--seed", "3", "--json",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("construction=man\nK=5\nr=2\nQ=5\nT=8\n")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--T", "4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == 4       # flag wins
        assert payload["Q"] == 5       # config used

    def test_exact_cover_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "fano", "--Q", "7", "--T", "4",
            "--cover", "exact", "--json",
        )
        assert code == 0
        assert json.loads(out)["cover_mode"] == "exact"

    def test_bibd_from_design_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "bibd",
            "--design", str(DATA / "fano_design.txt"),
            "--Q", "7", "--T", "4", "--cover", "exact", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["load"]["fraction"] == "2/7"

    def test_exact_cover_deeper_than_recursion_limit(self, capsys):
        # MAN(10,4) picks 1,260 one-entries, past the default 1,000 frames
        code, out, err = run_cli(
            capsys, "run", "--construction", "man", "--K", "10", "--r", "4",
            "--cover", "exact",
        )
        assert code == 0, err
        assert "reduce: ok" in out

    @pytest.mark.parametrize("flag", ["--config", "--design"])
    def test_directory_as_input_file_exits_2(self, capsys, tmp_path, flag):
        code, _, err = run_cli(
            capsys, "run", "--construction", "bibd", flag, str(tmp_path)
        )
        assert code == 2
        assert err.startswith("error: ")


class TestVerify:
    def test_fano_files_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", FANO_MATRIX, FANO_COVER)
        assert code == 0
        assert "verdict: ok" in out

    def test_truncated_cover_lists_missing(self, capsys, tmp_path):
        lines = Path(FANO_COVER).read_text().splitlines()
        truncated = tmp_path / "cover.txt"
        truncated.write_text("\n".join(["6"] + lines[1:7]) + "\n")
        code, out, _ = run_cli(capsys, "verify", FANO_MATRIX, str(truncated))
        assert code == 1
        assert "missing" in out

    def test_overlap_injected_cover_lists_overlaps(self, capsys, tmp_path):
        lines = Path(FANO_COVER).read_text().splitlines()
        dup = tmp_path / "cover.txt"
        dup.write_text("\n".join(["8"] + lines[1:] + [lines[1]]) + "\n")
        code, out, _ = run_cli(capsys, "verify", FANO_MATRIX, str(dup))
        assert code == 1
        assert "overlap" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        code, _, err = run_cli(capsys, "verify", str(bad), FANO_COVER)
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", FANO_MATRIX, FANO_COVER, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["counting_identity"]
        assert payload["row_regularity"]["regular"]

    def test_out_dir_gets_json_report(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", FANO_MATRIX, FANO_COVER, "--out", str(tmp_path)
        )
        assert code == 0
        assert "verdict: ok" in out
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["ok"]


class TestTables:
    def test_table1_default_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("scheme,")
        by_scheme = {ln.split(",")[0]: ln for ln in lines[1:]}
        assert by_scheme["I"].split(",")[5] == "2/7"
        assert "simulated" in by_scheme["I"]
        assert "formula-only" in by_scheme["II"]
        assert "formula-only" in by_scheme["III"]
        assert "simulated" in by_scheme["IV"]
        assert "simulated" in by_scheme["V"]

    def test_table1_params_file(self, capsys, tmp_path):
        params = tmp_path / "p.txt"
        params.write_text("IV v=7 t=3 kappa=5\n")
        code, out, _ = run_cli(capsys, "table1", "--params", str(params))
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[8] == "6/25"    # straggler fraction 2t/(kappa(v-t+1))

    def test_table1_missing_key_exits_2(self, capsys, tmp_path):
        params = tmp_path / "p.txt"
        params.write_text("I k=3\n")
        code, _, err = run_cli(capsys, "table1", "--params", str(params))
        assert code == 2
        assert "scheme I" in err and "'v'" in err

    def test_table1_params_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "table1", "--params", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_table2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(ln.endswith(",pass") for ln in lines[1:])

    def test_table2_extended_rows_marked(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--extended")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 7
        non_golden = [ln for ln in lines if ln.split(",")[-2] == "false"]
        assert len(non_golden) == 3
        # extended rows carry no pass verdict
        assert all(ln.split(",")[-1] == "" for ln in non_golden)

    def test_csv_written_to_out(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "table2", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "table2.csv").exists()


class TestSweep:
    def test_man_sweep(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--construction", "man", "--K", "5", "--r", "2",
            "--kappa", "4",
        )
        assert code == 0
        assert "verdict=ok" in err
        lines = out.strip().split("\n")
        assert len(lines) == 6    # header + 5 subsets
        assert all(ln.split(",")[1] == "1/2" for ln in lines[1:])

    def test_cap_below_one_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--construction", "man", "--K", "5", "--r", "2",
            "--kappa", "4", "--cap", "0",
        )
        assert code == 2
        assert "cap" in err
