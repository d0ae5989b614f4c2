"""The model's bits as a Tier-1 fact: every digest of ``bit_digests.json``
must be recomputed exactly (see ``bit_digests.py`` for what it covers and
how to rewrite it)."""

import json

import pytest

import bit_digests


def test_outputs_gradients_trace_and_files_keep_their_bits():
    table = json.loads(bit_digests.TABLE.read_text())
    here = bit_digests.build()
    if here != table["build"]:
        pytest.skip(f"the digests were recorded on numpy {table['build']['numpy']} with "
                    f"{table['build']['blas']}; this build is numpy {here['numpy']} with "
                    f"{here['blas']}, whose bits may differ")
    got = bit_digests.digests()
    want = table["digests"]
    assert sorted(set(want) - set(got)) == [], "digests no longer computed"
    assert sorted(set(got) - set(want)) == [], "digests missing from the table"
    moved = [key for key in want if got[key] != want[key]]
    assert moved == [], f"{len(moved)} of {len(want)} digests moved, first {moved[:10]}"
