"""sha256 pins of pipeline outputs: saved transcripts, reduce outputs, sweeps,
and the IVA tables they are built from.

Each pin was taken from the dict-backed shuffle engine and must hold for
any later engine: a changed transcript byte, reduce output, load or
sweep row changes a digest.
"""

import dataclasses
import hashlib

import pytest

from codedmr import (
    BinaryComputingMatrix,
    JobSpec,
    fano_matrix,
    man_cover,
    man_matrix,
    run_pipeline,
    search_cover,
    straggler_run,
    transversal_cover,
    transversal_matrix,
    worst_case_sweep,
)
from codedmr.shuffle import save_transcript
from test_shuffle import transcript_bits


def _spec(name, Q, T):
    if name == "fano":
        m = fano_matrix()
        return JobSpec(m, search_cover(m, 3, mode="exact"), Q, T)
    K, r = name
    m = man_matrix(K, r)
    return JobSpec(m, man_cover(m), Q, T)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs_sha(reduce_result) -> str:
    return _sha(repr(sorted(reduce_result.outputs.items())).encode())


def _transcript_sha(tmp_path, spec, transcript, stragglers=()) -> str:
    path = tmp_path / "t.bin"
    save_transcript(path, spec, transcript)
    sent, received = transcript_bits(spec, transcript, stragglers)
    bits = repr((sorted(sent.items()), sorted(received.items())))
    return _sha(path.read_bytes() + bits.encode())


@pytest.mark.parametrize(
    "name, Q, T, transcript_pin, outputs_pin",
    [
        ("fano", 14, 8,
         "f4dbfafa2368053a8b36da6cf8d6efb9d1b64dc1877ef52616442e618153518e",
         "d06ab0bfea5859ee2696ec12e6f14cd73d4b565ff1c1fdcfcbbdb5938fca1811"),
        ((5, 2), 5, 8,
         "6fa43fa234f08cf1b1b541cdf8c00cc9307fac03ecaa12dc70041baababc64a7",
         "58d22258d89ac038f408d3092ca77d5de673de40a19b6f0df09e95b21fe0f546"),
        ((7, 4), 7, 4,
         "dc62b94706174e5f0d7625c577bdecbcb1cbfc2546a003ef83994cc4deb31817",
         "a4d53d45e67157b114eea6d7d4fdb841fe1d8219e05431d07d77a3a7988dd86f"),
    ],
)
def test_default_plan_pipeline_pins(tmp_path, name, Q, T, transcript_pin, outputs_pin):
    spec = _spec(name, Q, T)
    result = run_pipeline(spec)
    assert result.reduce_result.ok
    assert _transcript_sha(tmp_path, spec, result.transcript) == transcript_pin
    assert _outputs_sha(result.reduce_result) == outputs_pin


def test_two_straggler_run_pin(tmp_path):
    spec = _spec((6, 3), 12, 4)
    result = straggler_run(spec, ("2", "5"))
    assert result.reduce_result.ok and result.plan_mode == "default"
    assert _transcript_sha(tmp_path, spec, result.transcript, ("2", "5")) == (
        "059ef1cb51dd8afaa5d699948104e661709902a061d856249aefc9605bc30871"
    )
    assert _outputs_sha(result.reduce_result) == (
        "2456ed63daabd8a7e933b06e602d678c94d9e92ba53a99f95a11e46a9db249da"
    )


def test_partial_straggler_pipeline_pin(tmp_path):
    spec = _spec("fano", 14, 8)
    result = run_pipeline(spec, partial=frozenset({"2"}))
    assert result.reduce_result.ok and transcript_bits(spec, result.transcript)[0]["2"] == 0
    assert _transcript_sha(tmp_path, spec, result.transcript) == (
        "8982918d178cbc0584660e1151175a84985a57c65c3849d8c2aeef508fdb2c0a"
    )
    # the same outputs as the no-straggler Fano run above
    assert _outputs_sha(result.reduce_result) == (
        "d06ab0bfea5859ee2696ec12e6f14cd73d4b565ff1c1fdcfcbbdb5938fca1811"
    )


def test_worst_case_sweep_runs_pin():
    sweep = worst_case_sweep(_spec((6, 3), 12, 4), kappa=4)
    assert len(sweep.runs) == 15 and all(ok for _, _, ok in sweep.runs)
    assert _sha(repr(sweep.runs).encode()) == (
        "9c18431539b7de9b8397c3852e31975e620fa81b9a2bad86098225e15611f2d6"
    )


def _flip_one_byte(member, kind, offset):
    def tamper(tx):
        if tx.member != member or tx.kind != kind:
            return tx
        payload = bytearray(tx.payload)
        payload[offset] ^= 0x01
        return dataclasses.replace(tx, payload=bytes(payload))
    return tamper


@pytest.mark.parametrize(
    "name, Q, mismatches, pin",
    [
        ("fano", 14, [("2", 3, "256"), ("3", 6, "136"), ("7", 13, "467")],
         "bc557903a156ef53fee45cef44f6d59f4c12b5c80d2d6e652c9afb6148afde96"),
        ((5, 2), 10, [("1", 2, "35"), ("2", 3, "14"), ("4", 7, "12")],
         "955d605a03c42976a7b81aa83fa01f1a1a0305d8a99e307d07cf23c729c05e22"),
    ],
    ids=["fano", "MAN(5,2)"],
)
def test_tampered_pipeline_pins(name, Q, mismatches, pin):
    """One flipped byte of member 1's coded broadcast reaches the rows that
    decode it, one of member 4's uncoded broadcast reaches its coded
    sender; every other function still reduces."""
    spec = _spec(name, Q, 8)
    coded, uncoded = _flip_one_byte(1, "coded", 3), _flip_one_byte(4, "uncoded", 10)
    result = run_pipeline(spec, tamper=lambda tx: uncoded(coded(tx))).reduce_result
    assert result.mismatches == mismatches
    assert _sha(repr((result.mismatches, sorted(result.outputs.items()))).encode()) == pin


def _utf8_fano():
    """The Fano plane with column labels of two-, three- and four-byte UTF-8."""
    m = fano_matrix()
    cols = tuple(f"{c}{label}" for c, label in zip("äß€東𝔽ø𝄞", m.cols))
    m = BinaryComputingMatrix(m.rows, cols, m.bits, m.r)
    return m, search_cover(m, 3, mode="exact")


@pytest.mark.parametrize(
    "case, Q, T, seed, subfile_bytes, pin",
    [
        ((5, 2), 10, 1, 0, 64,
         "1296a32b9e25aef50ecbd794e58ea180b578fc25459f1078189e5f17b2ba4d9d"),
        ("fano", 14, 64, 0, 64,
         "042768e6239bde82ec1d0a3e4401db60f42eb9a62e80ff6f6125aac2edb0af4a"),
        ((6, 3), 12, 65, 7, 100,
         "84c045130402ea5b055e71d35ffb8e481c605b1a9396dea81208655749d05041"),
        ("TD(3,3)", 9, 130, -1, 1,
         "d67afefc85b9c299046a01d45017999bbf4bd82027acf4f958d4d23efc9b5140"),
        ("utf8 fano", 7, 16, 3, 64,
         "f60bdb26ef0ad9227a2f23b4b3a566b6b53d00f5a05d4a6dcbed9d469c4ece3f"),
    ],
)
def test_iva_table_and_reduce_output_pins(case, Q, T, seed, subfile_bytes, pin):
    if case == "TD(3,3)":
        m = transversal_matrix(3, 3)
        cover = transversal_cover(m)
    elif case == "utf8 fano":
        m, cover = _utf8_fano()
    else:
        base = _spec(case, Q, T)
        m, cover = base.matrix, base.cover
    spec = JobSpec(m, cover, Q, T, file_seed=seed, subfile_bytes=subfile_bytes)
    assert _sha(spec.ivas.tobytes() + b"".join(spec.reduce_outputs)) == pin
