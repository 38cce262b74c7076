"""The parity corpus's digest: public results unchanged across versions."""

import parity

# the SHA-256 of ``parity.lines()``; a change to a public result changes it
FRAMED_DIGEST = "84a997aa6204c4370b7dc6a317501b1449860e047a7e4b44996e499e87cd856b"


def test_framed_results_match_the_pinned_digest():
    assert parity.digest() == FRAMED_DIGEST
