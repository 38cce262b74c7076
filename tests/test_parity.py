"""The parity corpus's digests: public results unchanged across versions."""

import parity

# the SHA-256 of each section's ``parity.lines``; a change to a public
# result changes its section's
FRAMED_DIGEST = "84a997aa6204c4370b7dc6a317501b1449860e047a7e4b44996e499e87cd856b"
SUBRACKS_DIGEST = "c968e75e9e33136c4bf311ed77384a623ceb7e0c0f64bf842375b217c30e1759"
ISOMORPHISM_DIGEST = "7ce07f61cbb27629b8bac293cbd83702ee82415a44f5f7f552be3e25233094d9"


def test_framed_results_match_the_pinned_digest():
    assert parity.digest("framed") == FRAMED_DIGEST


def test_subrack_results_match_the_pinned_digest():
    assert parity.digest("subracks") == SUBRACKS_DIGEST


def test_isomorphism_results_match_the_pinned_digest():
    assert parity.digest("isomorphism") == ISOMORPHISM_DIGEST
