"""The tier-1 slice of the differential corpus (see ``differential.py``):
both engines agree wherever both give a verdict, and every group's
outputs match the committed digests."""

import differential


def test_differential_slice_matches_the_committed_digests():
    got, disagreements = differential.run("slice")
    assert disagreements == []
    assert sum(d["checks"] for d in got.values()) >= 1500
    assert differential.compare("slice", got) == []
