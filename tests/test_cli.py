import hashlib
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

    def test_unknown_server_label_is_a_malformed_member(self, capsys, tmp_path):
        lines = Path(FANO_COVER).read_text().splitlines()
        bad = tmp_path / "cover.txt"
        bad.write_text("\n".join([lines[0], "3 9" + lines[1][3:], *lines[2:]]) + "\n")
        code, out, err = run_cli(capsys, "verify", FANO_MATRIX, str(bad))
        assert code == 1
        assert "malformed member 0: unknown server label" in out
        assert "verdict: FAILED" in out and err == ""

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


# sha256 of standard output and of every --out artifact; any change to
# how a run is sequenced must reproduce them byte for byte.
_MAN_5_2 = ("run", "--construction", "man", "--K", "5", "--r", "2")
_MAN_5_2_ARTIFACTS = {
    "cover.txt": "41912649d2477d6c9f50825316eaa171e40c1ad844953ec3fd8db9a088368b18",
    "matrix.txt": "4c1e1d6abecc9f4c92e4cb7e08419f320fd5e50b45e1a145ea91e6e5405a6867",
}
_FANO_ARTIFACTS = {
    "cover.txt": "d9e41958c34c222c9c3a60357641e5da9b3944046368846f05047d8778a907af",
    "matrix.txt": "7a073a1c517d8d2ba43a0359c4ffddd8e74eec155539baab74dc8f3a959f17f0",
}
_FANO_BALANCED_STDOUT = "6d95deb16f196978465740186d90032175b01f325783f9fc5526d997100eb8ff"
_FANO_BALANCED_TRANSCRIPT = "068ee2e5d7402ff704183794ce39181f2a7cbbf11ef7125fa894957482618663"
_MAN_5_2_Q20_TRANSCRIPT = "26d857719c0292d6a6c5c5a4937e8ca5f8d0c1e79aba18781cf1d270fc8a0b1f"
_VERIFY_JSON = "b322bce2d994628147fd3f0f5bc2666d8d8f4008e2db376f1f737b26b8145127"

OUTPUT_PINS = {
    "man-5-2": (_MAN_5_2, {
        **_MAN_5_2_ARTIFACTS,
        "stdout": "3aade00ca5695152f8ee029846598d81157d7a3b2de04fe50acfe357e2885ec6",
        "summary.json": "6f1a47e640eed55981f2753655270747cbe81b9b33e5d2febb8b75235cfc4ba1",
        "transcript.bin": "b5c0978c33c5cb48da6fe60d89137ec449d74c4716d991628d11217945f11557",
    }),
    "fano-balanced": (("run", "--construction", "fano", "--plan", "balanced"), {
        **_FANO_ARTIFACTS,
        "stdout": _FANO_BALANCED_STDOUT,
        "audit.csv": "a15bba816608229d121d91d7d64d9fb813069de1e1ff846f1d2de7d63b08ac3c",
        "plan.json": "2135e3ca58b91f55cbc96bf3c108008f3ec209bcdef24ea74ab88183475e1cbc",
        "summary.json": "a0f87847f10c6a5143042dff5b4b3f08d1184971ea2f6f309626b232273a0b24",
        "transcript.bin": _FANO_BALANCED_TRANSCRIPT,
    }),
    "fano-stragglers-0-balanced": (
        ("run", "--construction", "fano", "--stragglers", "0", "--plan", "balanced"), {
            **_FANO_ARTIFACTS,
            "stdout": _FANO_BALANCED_STDOUT,
            "summary.json": "5db6aeaeb8c8d8b9797c3e58cf69cdb49949512fee91020add5d56fb95ab3d52",
            "transcript.bin": _FANO_BALANCED_TRANSCRIPT,
        }),
    "man-5-2-stragglers-1": ((*_MAN_5_2, "--Q", "20", "--stragglers", "1"), {
        **_MAN_5_2_ARTIFACTS,
        "stdout": "d9807c5a42e1015f8d378b4e02de220d8b9cac7b9291031199eb5bb26894daa5",
        "summary.json": "0afb98dee8456c8e3501ac9ffa30df19c75e5df85655dab52bceec00593d4d6a",
        "transcript.bin": _MAN_5_2_Q20_TRANSCRIPT,
    }),
    "man-5-2-stragglers-1-balanced": (
        (*_MAN_5_2, "--Q", "20", "--stragglers", "1", "--plan", "balanced"), {
            **_MAN_5_2_ARTIFACTS,
            "stdout": "260eaf7ac49c27adfeb3e393b9fac943f8adb399dff277a85f658ac32182f1d7",
            "summary.json": "4e58701f56d5c208ebcfd5013cd7479dafc290a6d77c4a46593e27f67d281ecf",
            "transcript.bin": _MAN_5_2_Q20_TRANSCRIPT,
        }),
    "man-6-3-stragglers-2,5": (
        ("run", "--construction", "man", "--K", "6", "--r", "3", "--Q", "12", "--T", "4",
         "--stragglers", "2,5"), {
            "stdout": "6c46181bcddef81a0743a795ea60dee9c16c38ec4d0b633e21038e5d21f6f007",
            "cover.txt": "ed8c978daeb10070ac8e70e8dcfe9bb0d7f13776dddadcfc76b520d626b76654",
            "matrix.txt": "c1613a31dc73861b5a91248fb1a1b42cdf8fe22845df5487c0f39347b1184f9d",
            "summary.json": "6a7caf793391a7b4bf8343c5548ec7ffe32ca7ea40ac2739c01dbd2a27c69993",
            "transcript.bin": "b030c369c5cad8b9b9852fbe7b38bf247e24707bc693cb3e0c77b9b58a35c994",
        }),
    "man-7-4-stragglers-6,7-balanced": (
        ("run", "--construction", "man", "--K", "7", "--r", "4", "--Q", "35", "--T", "4",
         "--stragglers", "6,7", "--plan", "balanced"), {
            "stdout": "57180d12cf56480d340e01843a04a0b1cded3ea66b774c62b497c832fa0e868d",
            "cover.txt": "22b29b44298b9c0ce9fed0ff799e15ef98d5b3196db265519e89e04e19bcb9d1",
            "matrix.txt": "ab43f7019cb52127b8ee7b3c6108c4101b3a0fec77260f7c6075a5b7c8f76b42",
            "summary.json": "6ba259492786b7428cb992e6773f702bdc2c37d2ea7d923642f5c527c565e828",
            "transcript.bin": "2c3f08cae766dd4f91609d09181d73b2c2da247336196bcc86fb5fc545edcb6d",
        }),
    "fano-verify-json": (("verify", FANO_MATRIX, FANO_COVER, "--json"), {
        "stdout": _VERIFY_JSON,
        "verify.json": _VERIFY_JSON,
    }),
}


@pytest.mark.parametrize("argv, pins", OUTPUT_PINS.values(), ids=OUTPUT_PINS)
def test_outputs_are_pinned(capsys, tmp_path, argv, pins):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    got.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in tmp_path.iterdir())
    assert got == pins
