"""The parity corpus's digests: public results unchanged across versions."""

import parity

# the SHA-256 of each section's ``parity.lines``; a change to a public
# result changes its section's
FRAMED_DIGEST = "84a997aa6204c4370b7dc6a317501b1449860e047a7e4b44996e499e87cd856b"
SUBRACKS_DIGEST = "c968e75e9e33136c4bf311ed77384a623ceb7e0c0f64bf842375b217c30e1759"
ISOMORPHISM_DIGEST = "7ce07f61cbb27629b8bac293cbd83702ee82415a44f5f7f552be3e25233094d9"
TABLES_DIGEST = "47d1c5d8b85cdb6ea3e3e8c33a8c4677cd0b953939763e5b058bbd4e7c0b3159"
SCANS_DIGEST = "749a0d4459513fe7b42d4da68d3fe4b80adaccf96e84f6d821604a2de45e157d"
AGREEING_DIGEST = "92bc4d1655118e9a004db31a10f18448fc6389b0c3b968d6c4b23fd812b4d74e"
LINEAR_DIGEST = "6bf202f94c9b7c33a469c50f1a4cb54a83a274356a16352d868563499a850d5e"
CORRUPTED_DIGEST = "86a7aac8655eb2272fa0cb94da65b059ed3a2e18ca371944ec1578378eda54c6"
CLI_DIGEST = "9569cc2721a564b35a79be9cdc4c0205c95e2077e78fdfe764424d8f3539c9f5"
DIAGRAMS_DIGEST = "690e0f5374eb9c708e5eacaf7e47b73ca32f636e48202df0dfb5003c36a09af8"


def test_framed_results_match_the_pinned_digest():
    assert parity.digest("framed") == FRAMED_DIGEST


def test_subrack_results_match_the_pinned_digest():
    assert parity.digest("subracks") == SUBRACKS_DIGEST


def test_isomorphism_results_match_the_pinned_digest():
    assert parity.digest("isomorphism") == ISOMORPHISM_DIGEST


def test_table_results_match_the_pinned_digest():
    assert parity.digest("tables") == TABLES_DIGEST


def test_scan_results_match_the_pinned_digest():
    assert parity.digest("scans") == SCANS_DIGEST


def test_agreeing_scan_results_match_the_pinned_digest():
    assert parity.digest("agreeing") == AGREEING_DIGEST


def test_linear_rack_results_match_the_pinned_digest():
    assert parity.digest("linear") == LINEAR_DIGEST


def test_corrupted_table_reports_match_the_pinned_digest():
    assert parity.digest("corrupted") == CORRUPTED_DIGEST


def test_command_line_results_match_the_pinned_digest():
    assert parity.digest("cli") == CLI_DIGEST


def test_diagram_parses_match_the_pinned_digest():
    assert parity.digest("diagrams") == DIAGRAMS_DIGEST
