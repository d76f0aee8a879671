"""sha256 pins of pipeline outputs: saved transcripts, reduce outputs, sweeps.

Each pin was taken from the dict-backed shuffle engine and must hold for
any later engine: a changed transcript byte, reduce output, load or
sweep row changes a digest.
"""

import hashlib

import pytest

from codedmr import (
    JobSpec,
    StragglerScenario,
    fano_matrix,
    man_cover,
    man_matrix,
    run_pipeline,
    search_cover,
    straggler_run,
    worst_case_sweep,
)
from codedmr.shuffle import save_transcript


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


def _transcript_sha(tmp_path, spec, transcript) -> str:
    path = tmp_path / "t.bin"
    save_transcript(path, spec, transcript)
    bits = repr((sorted(transcript.sent_bits.items()), sorted(transcript.received_bits.items())))
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
    scenario = StragglerScenario.from_stragglers(spec, ("2", "5"))
    result = straggler_run(spec, scenario)
    assert result.reduce_result.ok and result.plan_mode == "default"
    assert _transcript_sha(tmp_path, spec, result.transcript) == (
        "059ef1cb51dd8afaa5d699948104e661709902a061d856249aefc9605bc30871"
    )
    assert _outputs_sha(result.reduce_result) == (
        "2456ed63daabd8a7e933b06e602d678c94d9e92ba53a99f95a11e46a9db249da"
    )


def test_partial_straggler_pipeline_pin(tmp_path):
    spec = _spec("fano", 14, 8)
    result = run_pipeline(spec, partial=frozenset({"2"}))
    assert result.reduce_result.ok and result.transcript.sent_bits["2"] == 0
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
