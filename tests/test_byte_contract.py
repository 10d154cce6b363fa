"""The byte contract: every artifact of the fixed CLI job list in
byte_contract.py hashes to its recorded digest.

Float artifacts may differ for good reasons under other Python, numpy or
SciPy versions, another BLAS or another BLAS thread count.  There only the
exact-arithmetic artifacts are compared, and the test then skips, naming
what it did not compare: it never passes silently."""

import json

import pytest

import byte_contract


def test_artifacts_match_their_recorded_digests():
    want = json.loads(byte_contract.RECORD.read_text())
    got = byte_contract.record()
    assert sorted(got["digests"]) == sorted(want["digests"])
    same_env = got["environment"] == want["environment"]
    compared = [k for k in want["digests"]
                if same_env or k.split("/")[0] in byte_contract.EXACT_JOBS]
    moved = [k for k in compared if got["digests"][k] != want["digests"][k]]
    assert not moved, f"artifacts moved: {moved}"
    if not same_env:
        pytest.skip(f"{len(want['digests']) - len(compared)} float artifacts "
                    f"not compared: recorded under {want['environment']}, "
                    f"running under {got['environment']}")
