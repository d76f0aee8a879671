import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from codedmr.cli import main

DATA = Path(__file__).parent / "data"
FANO_MATRIX = str(DATA / "fano_matrix.txt")
FANO_COVER = str(DATA / "fano_cover.txt")
TABLE1_PARAMS = str(DATA / "table1_params.txt")


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

    def test_stragglers_reported_in_row_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "man", "--K", "7", "--r", "4",
            "--Q", "35", "--T", "2", "--stragglers", "7,6", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["stragglers"], payload["kappa"]) == (["6", "7"], 5)

    def test_one_numeric_label_takes_a_trailing_comma(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--construction", "man", "--K", "5", "--r", "2",
            "--Q", "20", "--stragglers", "2,", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["stragglers"], payload["kappa"]) == (["2"], 4)

    def test_straggler_count_out_of_range_names_the_label_form(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--construction", "man", "--K", "5", "--r", "2",
            "--Q", "20", "--stragglers", "5",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: straggler count 5 out of range (write --stragglers 5, to fail server 5)\n"
        )

    def test_iva_table_over_the_bound_exits_2(self, capsys, monkeypatch):
        from codedmr import shuffle

        def refuse(*args):
            raise AssertionError("hashing began")   # a 98 GB table must not be started

        monkeypatch.setattr(shuffle, "_digest_streams", refuse)
        code, out, err = run_cli(
            capsys, "run", "--construction", "fano", "--T", "2000000000",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: the IVA table would take Q*N*T = 98000000000 bytes, "
            "over the limit of 268435456\n"
        )

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

    @pytest.mark.parametrize("flags, plan, seed", [
        ((), "balanced", 7),
        (("--plan", "default", "--seed", "3"), "default", 3),
    ])
    def test_config_plan_and_seed_unless_flags_win(self, capsys, tmp_path, flags, plan, seed):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("construction=fano\nplan=balanced\nseed=7\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), *flags, "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["plan"], payload["seed"]) == (plan, seed)

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

    def test_label_too_long_for_the_transcript_log_exits_2(self, capsys, tmp_path):
        lines = (DATA / "fano_design.txt").read_text().splitlines()
        relabel = lambda line: " ".join("x" * 70_000 if t == "1" else t for t in line.split())
        design = tmp_path / "design.txt"
        design.write_text("\n".join([lines[0], *map(relabel, lines[1:])]) + "\n")
        code, _, err = run_cli(
            capsys, "run", "--construction", "bibd", "--design", str(design),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert err == (
            "error: a server label of 70000 UTF-8 bytes is over the transcript log's limit of 65535\n"
        )
        assert not (tmp_path / "out").exists()   # the refused save made no DIR

    def test_exact_cover_deeper_than_recursion_limit(self, capsys):
        # MAN(10,4) picks 1,260 one-entries, past the default 1,000 frames
        code, out, err = run_cli(
            capsys, "run", "--construction", "man", "--K", "10", "--r", "4",
            "--cover", "exact",
        )
        assert code == 0, err
        assert "reduce: ok" in out

    @pytest.mark.parametrize(
        "text", ["1 1 1\n0\n0\n", "3 1 3\na b c\na b c\n"], ids=["k=1", "k=v"]
    )
    def test_design_block_size_outside_two_to_v_exits_2(self, capsys, tmp_path, text):
        design = tmp_path / "design.txt"
        design.write_text(text)
        code, _, err = run_cli(capsys, "run", "--construction", "bibd", "--design", str(design))
        assert code == 2
        assert err.startswith("error: block size")

    def test_wide_design_exits_2_before_its_pairs(self, capsys, monkeypatch, tmp_path):
        from codedmr import constructions
        from test_constructions import one_block_design

        def no_pairs(d):
            raise AssertionError("the design's pairs were read")

        monkeypatch.setattr(constructions, "validate_bibd", no_pairs)
        design = tmp_path / "design.txt"
        design.write_text(one_block_design(6000))
        code, _, err = run_cli(capsys, "run", "--construction", "bibd", "--design", str(design))
        assert code == 2
        assert err.startswith("error: the design (v=6000, b=1) would have at least 36000000 cells")

    @pytest.mark.parametrize("argv", [
        ("--construction", "transversal", "--k", "2", "--n", "3"),
        ("--construction", "man", "--K", "5", "--r", "2", "--Q", "20", "--stragglers", "1"),
    ], ids=["full-set", "stragglers"])
    def test_balanced_fallback_reads_the_same(self, capsys, argv):
        code, out, _ = run_cli(capsys, "run", *argv, "--plan", "balanced")
        assert code == 0
        assert "plan: default (balanced unavailable)" in out
        assert "\nwarning: balanced plan unavailable (" in out
        assert "); using default plan\n" in out

    def test_a_recursion_error_propagates_and_a_runtime_error_exits_1(self, capsys, monkeypatch):
        """RecursionError is a RuntimeError, which ``main`` maps to exit 1;
        an interpreter fault must not hide behind that exit code."""
        from codedmr import balance

        def fail(error):
            def build(*args):
                raise error("maximum recursion depth exceeded")
            return build

        argv = ("run", "--construction", "fano", "--plan", "balanced")
        monkeypatch.setattr(balance, "build_sender_plan", fail(RecursionError))
        with pytest.raises(RecursionError):
            main(list(argv))
        monkeypatch.setattr(balance, "build_sender_plan", fail(RuntimeError))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err == "failure: maximum recursion depth exceeded\n"

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

    @pytest.mark.parametrize("row, message", [
        ("V k=3 n=4", "error: n=4 is not prime; the line construction needs Z_n arithmetic"),
        ("I v=7 k=3 kappa=0", "error: survivors=0 out of range [1, K=7]"),
    ], ids=["composite-n", "kappa-0"])
    def test_table1_bad_row_exits_2(self, capsys, tmp_path, row, message):
        params = tmp_path / "p.txt"
        params.write_text(row + "\n")
        code, out, err = run_cli(capsys, "table1", "--params", str(params))
        assert code == 2
        assert err.startswith(message)
        assert out == ""

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

    def test_config_key_without_a_sweep_flag_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("construction=fano\nstragglers=1,2\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--kappa", "6")
        assert code == 2 and out == ""
        assert err == "error: unknown config key 'stragglers'\n"

    def test_cap_below_one_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--construction", "man", "--K", "5", "--r", "2",
            "--kappa", "4", "--cap", "0",
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("kappa", ["-1", "0", "1"])
    def test_kappa_below_two_exits_2_naming_kappa(self, capsys, kappa):
        code, out, err = run_cli(
            capsys, "sweep", "--construction", "man", "--K", "5", "--r", "2",
            "--kappa", kappa,
        )
        assert code == 2
        assert f"error: kappa={kappa} must be at least 2 survivors" in err
        assert out == ""


@pytest.mark.parametrize("command", [("run",), ("sweep", "--kappa", "6")])
@pytest.mark.parametrize("g", ["-3", "0", "1"])
def test_g_below_two_exits_2_naming_g(capsys, command, g):
    code, out, err = run_cli(
        capsys, *command, "--construction", "fano", "--cover", "exact", "--g", g,
    )
    assert code == 2
    assert f"error: g={g} must be at least 2" in err
    assert out == ""


# each would list about 1.4e11 subsets, or allocate 2e9 cells, unguarded
@pytest.mark.parametrize("argv, K, N", [
    (("run", "--construction", "man", "--K", "40", "--r", "20"), 40, 137846528820),
    (("run", "--construction", "tsubset", "--v", "40", "--t", "20"), 40, 137846528820),
    (("run", "--construction", "transversal", "--k", "2", "--n", "1009"), 1018081, 2018),
    (("sweep", "--construction", "man", "--K", "40", "--r", "20", "--kappa", "39"),
     40, 137846528820),
])
def test_oversized_construction_exits_2(capsys, argv, K, N):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"K={K} rows and N={N} columns" in err
    assert out == ""


def test_oversized_table1_row_exits_2(capsys, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("IV v=40 t=20 kappa=5\n")
    code, out, err = run_cli(capsys, "table1", "--params", str(params))
    assert code == 2
    assert "K=40 rows and N=137846528820 columns" in err
    assert out == ""


# sha256 of standard output, of standard error when there is any, and of
# every --out artifact; any change to how a run is sequenced or a table is
# built must reproduce them byte for byte.
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
_FANO_BALANCED_PLAN_ARTIFACTS = {
    "audit.csv": "a15bba816608229d121d91d7d64d9fb813069de1e1ff846f1d2de7d63b08ac3c",
    "plan.json": "2135e3ca58b91f55cbc96bf3c108008f3ec209bcdef24ea74ab88183475e1cbc",
}
_VERIFY_JSON = "b322bce2d994628147fd3f0f5bc2666d8d8f4008e2db376f1f737b26b8145127"
_TABLE1_CSV = "8a98b4dc6b98221a7c0acd170934eff8979d3a312ae06027718c20804c6925dd"
_TABLE1_PARAMS_CSV = "e5516472df69b6187231ef36eff9213b6cb92f361912f91fbd06e746d4ab373a"
_TABLE2_EXTENDED_CSV = "54b6c6eef26fc55a32d296dc6cd6f777446d482b1f5e5cac3dbb2d2ee7a96f3e"
_FANO_SWEEP_CSV = "cc5593196c42f12d6ef4b82cac130e2feed7ea3f39388fe5bc4cf120be5e35ba"

OUTPUT_PINS = {
    "man-5-2": (_MAN_5_2, {
        **_MAN_5_2_ARTIFACTS,
        "stdout": "3aade00ca5695152f8ee029846598d81157d7a3b2de04fe50acfe357e2885ec6",
        "summary.json": "6f1a47e640eed55981f2753655270747cbe81b9b33e5d2febb8b75235cfc4ba1",
        "transcript.bin": "b5c0978c33c5cb48da6fe60d89137ec449d74c4716d991628d11217945f11557",
    }),
    "fano-balanced": (("run", "--construction", "fano", "--plan", "balanced"), {
        **_FANO_ARTIFACTS,
        **_FANO_BALANCED_PLAN_ARTIFACTS,
        "stdout": _FANO_BALANCED_STDOUT,
        "summary.json": "a0f87847f10c6a5143042dff5b4b3f08d1184971ea2f6f309626b232273a0b24",
        "transcript.bin": _FANO_BALANCED_TRANSCRIPT,
    }),
    "fano-stragglers-0-balanced": (
        ("run", "--construction", "fano", "--stragglers", "0", "--plan", "balanced"), {
            **_FANO_ARTIFACTS,
            **_FANO_BALANCED_PLAN_ARTIFACTS,
            "stdout": _FANO_BALANCED_STDOUT,
            "summary.json": "8ed84b16eb7dd81e1dd5b2f7d5035cf360b73134e8526b6416a32c45eb70db7a",
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
            "stdout": "77406f854e39ad354838415623649f1b9b069a5b251769b6c5bdf70b946cf65b",
            "summary.json": "edb675a90d6b945b1b6c59d338cede3c0289dbf61c838b2d3710c05a825000bc",
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
            "stdout": "7552e098df29e8ffbadfc370cb122aa56c11caea9d49dd84e8385c7e64732a5a",
            "cover.txt": "22b29b44298b9c0ce9fed0ff799e15ef98d5b3196db265519e89e04e19bcb9d1",
            "matrix.txt": "ab43f7019cb52127b8ee7b3c6108c4101b3a0fec77260f7c6075a5b7c8f76b42",
            "summary.json": "1d05054f6bedc2a4a6812880a31b686c5c9d8f7c337f95295a30826b563d8a9a",
            "transcript.bin": "2c3f08cae766dd4f91609d09181d73b2c2da247336196bcc86fb5fc545edcb6d",
        }),
    "transversal-2-3-balanced": (
        ("run", "--construction", "transversal", "--k", "2", "--n", "3", "--plan", "balanced"), {
            "stdout": "fbe4a31c05cfea513affaf7e1b216284aa13150daeee3fd0ae08e48045439ae0",
            "cover.txt": "846dd74c6ed143f67dfc99e843e6451c57cb4833afeaac1ba0dd96a3cfecb53e",
            "matrix.txt": "2c248b1b80f60793c7d9e353de765b4a8afa3fdffdc9d738fcde95acb4000cbe",
            "summary.json": "7c9b20e1fc80d61d53ca0ca001fc3e15c464eafc445d1c4e5ade524040db19f8",
            "transcript.bin": "fc7e87368c13c7d34cbefc54ad121379535c8a269c1b2e454c2535f1dc3dee2f",
        }),
    "tsubset-6-2": (("run", "--construction", "tsubset", "--v", "6", "--t", "2"), {
        "stdout": "af55d0a9108d097ca4bf99f85eb61f8991a9f41a9c98b310154de9714c063554",
        "cover.txt": "cefcd90ead3e24b3e31e9649656d077278c609d175aacbec9940d123b7371fd6",
        "matrix.txt": "fc02301655682500617e164c27e69c7f490a0ef7356a1766a3ab4cead6711a7d",
        "summary.json": "7447e511d5623190da95fc5fbe10415f6663cbb8581139bdd583bc1773acd8bd",
        "transcript.bin": "cdae040ade4a07e68e9dd04044ae8ac7357f9c559b1651bfd68f77dc1a8ba3b0",
    }),
    "fano-verify-json": (("verify", FANO_MATRIX, FANO_COVER, "--json"), {
        "stdout": _VERIFY_JSON,
        "verify.json": _VERIFY_JSON,
    }),
    "fano-verify-text": (("verify", FANO_MATRIX, FANO_COVER), {
        "stdout": "176576e6fc39f9600dd38824ffad69717c9754b43b6b8d5171056ad3b5aaa6d7",
        "verify.json": _VERIFY_JSON,
    }),
    "table1": (("table1",), {
        "stdout": _TABLE1_CSV,
        "table1.csv": _TABLE1_CSV,
    }),
    "table1-params": (("table1", "--params", TABLE1_PARAMS), {
        "stdout": _TABLE1_PARAMS_CSV,
        "table1.csv": _TABLE1_PARAMS_CSV,
    }),
    "table2-extended": (("table2", "--extended"), {
        "stdout": _TABLE2_EXTENDED_CSV,
        "table2.csv": _TABLE2_EXTENDED_CSV,
    }),
    "fano-sweep-kappa-6": (("sweep", "--construction", "fano", "--kappa", "6"), {
        "stdout": _FANO_SWEEP_CSV,
        "stderr": "76756159e760cfe9b835740f46c6bcd004629beecaea81959385c888bb0fbf07",
        "sweep.csv": _FANO_SWEEP_CSV,
    }),
}


@pytest.mark.parametrize("argv, pins", OUTPUT_PINS.values(), ids=OUTPUT_PINS)
def test_outputs_are_pinned(capsys, tmp_path, argv, pins):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    if err:
        got["stderr"] = hashlib.sha256(err.encode()).hexdigest()
    got.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in tmp_path.iterdir())
    assert got == pins


def _pg2_4_design(tmp_path):
    """PG(2,4) developed from the difference set {0, 1, 4, 14, 16} mod 21:
    no exact cover with g=5 is found within any budget the tests can spend."""
    blocks = [" ".join(str((i + d) % 21) for d in (0, 1, 4, 14, 16)) for i in range(21)]
    path = tmp_path / "pg2_4.txt"
    path.write_text("\n".join(["21 21 5", " ".join(map(str, range(21))), *blocks]) + "\n")
    return str(path)


@pytest.mark.parametrize("command", [
    ["run", "--Q", "21", "--T", "1"],
    ["sweep", "--kappa", "20"],
])
def test_exact_search_budget_exits_1(capsys, monkeypatch, tmp_path, command):
    from codedmr import cli

    monkeypatch.setattr(cli, "CLI_MAX_NODES", 10_000)
    code, out, err = run_cli(
        capsys, *command, "--construction", "bibd", "--design", _pg2_4_design(tmp_path),
        "--cover", "exact", "--g", "5",
    )
    assert code == 1
    assert err == "failure: exact search exceeded 10000 nodes\n"
    assert out == ""


@pytest.mark.parametrize("design, g", [("fano", 3), ("PG(2,3)", 4), ("PG(2,4)", 5)])
def test_bibd_searches_with_the_design_default_g(capsys, monkeypatch, tmp_path, design, g):
    """Without --g a (v, k, 1) design's cover is searched at g = (v-1)/(k-1)."""
    from codedmr import covers
    from test_constructions import format_design, pg2_3_design

    if design == "fano":
        path = str(DATA / "fano_design.txt")
    elif design == "PG(2,3)":
        path = str(tmp_path / "pg2_3.txt")
        Path(path).write_text(format_design(pg2_3_design()))
    else:
        path = _pg2_4_design(tmp_path)
    searched = []

    def record(m, size, **kwargs):
        searched.append(size)
        raise covers.CoverSearchError("searched")

    monkeypatch.setattr(covers, "search_cover", record)
    code, out, err = run_cli(
        capsys, "run", "--construction", "bibd", "--design", path, "--cover", "exact",
    )
    assert (code, out, err) == (1, "", "failure: searched\n")
    assert searched == [g]


@pytest.mark.parametrize("name, flags, family, g", [
    ("tsubset", {"v": 6, "t": 2}, ("t_design_2", 6, 2), 5),
    ("tsubset", {"v": 7, "t": 3}, ("t_design_2", 7, 3), 5),
    ("tsubset", {"v": 5, "t": 1}, ("t_design_2", 5, 1), 5),
    ("transversal", {"k": 2, "n": 3}, ("transversal", 2, 3), 3),
    ("transversal", {"k": 3, "n": 5}, ("transversal", 3, 5), 5),
    ("fano", {}, ("bibd", 7, 3), 3),
    ("bibd", {"design": str(DATA / "fano_design.txt")}, ("bibd", 7, 3), 3),
])
def test_construction_default_g_is_the_scheme_family_g(name, flags, family, g):
    from codedmr.cli import build_construction
    from codedmr.constructions import SchemeParameters

    build, *args = family
    expected = getattr(SchemeParameters, build)(*args).g
    assert build_construction(name, **flags).default_g == expected == g


def test_exact_search_budget_admits_pg2_3():
    from codedmr import cli

    from test_covers import PG2_3_NODES

    assert cli.CLI_MAX_NODES == 1_000_000 > PG2_3_NODES


MAN_5_2_CONFIG = "construction=man\nK=5\nr=2\nQ=20\nT=4\nplan=balanced\nseed=3\n"


@st.composite
def edited_input(draw, text):
    """*text* after up to four random edits: a token inserted, deleted or
    replaced (by one of the text's tokens, an integer from -1 to 12, a key
    of the text set to such an integer, or junk), a line duplicated,
    deleted or moved, or a blank line inserted."""
    lines = [line.split() for line in text.splitlines()]
    own = sorted({tok for line in lines for tok in line})
    keys = sorted({tok.partition("=")[0] for tok in own if "=" in tok}) or ["k"]
    small = st.integers(-1, 12).map(str)
    token = st.one_of(
        st.sampled_from(own + ["x", "=", "#", "1.5", "é"]),
        small,
        st.builds("{}={}".format, st.sampled_from(keys), small),
    )
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("insert", "delete", "replace", "copy", "drop", "move", "blank")))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        line = lines[i] if lines else []
        at = draw(st.integers(0, max(len(line) - 1, 0)))
        if op == "insert" and lines:
            line.insert(draw(st.integers(0, len(line))), draw(token))
        elif op == "delete" and line:
            del line[at]
        elif op == "replace" and line:
            line[at] = draw(token)
        elif op == "copy" and lines:
            lines.insert(draw(st.integers(0, len(lines))), list(line))
        elif op in ("drop", "move") and lines:
            del lines[i]
            if op == "move":
                lines.insert(draw(st.integers(0, len(lines))), line)
        elif op == "blank":
            lines.insert(draw(st.integers(0, len(lines))), [])
    return "".join(" ".join(line) + "\n" for line in lines)


FANO_DESIGN = str(DATA / "fano_design.txt")
# each input file the property edits, by the argument that names it: the
# shipped files and a MAN(5,2) config
FUZZ_INPUTS = {
    **{path: Path(path).read_text()
       for path in (FANO_MATRIX, FANO_COVER, FANO_DESIGN, TABLE1_PARAMS)},
    "man_5_2.cfg": MAN_5_2_CONFIG,
}
FUZZ_ARGV = {
    "verify": ["verify", FANO_MATRIX, FANO_COVER],
    "run --design": ["run", "--construction", "bibd", "--design", FANO_DESIGN],
    "run --config": ["run", "--config", "man_5_2.cfg"],
    "sweep --config": ["sweep", "--kappa", "4", "--config", "man_5_2.cfg"],
    "table1 --params": ["table1", "--params", TABLE1_PARAMS],
}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(FUZZ_ARGV)), data=st.data())
def test_edited_input_files_exit_0_1_or_2(case, data, tmp_path_factory):
    """The robustness rule: whatever an input file holds, ``main`` returns
    0, 1 or 2 and raises nothing, SystemExit included.  Each input is a
    shipped file (or a MAN(5,2) config) after random token and line edits."""
    tmp = tmp_path_factory.getbasetemp() / "edited_inputs"
    tmp.mkdir(exist_ok=True)
    argv = []
    for i, arg in enumerate(FUZZ_ARGV[case]):
        if arg in FUZZ_INPUTS:
            edited = data.draw(edited_input(FUZZ_INPUTS[arg]), label=Path(arg).name)
            arg = str(tmp / f"input{i}")
            Path(arg).write_text(edited)
        argv.append(arg)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{case} raised {exc!r}")
    assert code in (0, 1, 2)
    event(f"{case}: exit {code}")
