"""Replay the output ledger (``tests/ledger.py``): every seeded job recorded
in ``tests/data/ledger.json`` must give the same bits again."""

import json

import ledger


def test_every_ledger_entry_replays_with_the_same_bits():
    recorded = json.loads(ledger.LEDGER.read_text())
    assert recorded["versions"] == ledger.versions(), (
        f"the ledger was recorded under {recorded['versions']}, and this run "
        f"uses {ledger.versions()}: regenerate it with tests/ledger.py at the "
        "parent commit before comparing")
    replayed = ledger.entries()
    assert len(replayed) == len(recorded["entries"])
    for i, (old, new) in enumerate(zip(recorded["entries"], replayed)):
        # as text, so a NaN compares equal to itself
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True), \
            f"entry {i}: {' '.join(old['argv'])}"
