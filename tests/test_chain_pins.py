"""Criterion-09 chain reports, pinned bit for bit.

The draws of acceptance criterion 09 (``spawn_rng(909 + mi, i)`` under its
seven means), every 50th i of each mean, run through both chain forms; each
report's five terms and verdict are hashed, and the digests must equal the
pinned ones in ``chain_pins.json``.  A change to the integration engine, the
kink finder or the samplers that moves a digit fails here, naming the draws
that moved.  A deliberate change rewrites the pins:

    PYTHONPATH=src python3 tests/test_chain_pins.py

and the change is declared in CHANGES.md.
"""

import hashlib
import json
import os

from ineqmeans import integral_logderiv_chain, integral_mean_chain, parse_mean
from ineqmeans.sampling import spawn_rng
from test_acceptance import _increasing_pair, _suitable_pair

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "chain_pins.json")
MEANS = ("power:0", "power:1", "power:2", "power:inf", "rado:-1", "rado:0", "wgeom:0.75,0.25")
DRAWS = range(0, 1000, 50)


def _digest(report) -> str:
    terms = (report.left, report.middle, report.right, report.slack_left, report.slack_right)
    text = ",".join(float(x).hex() for x in terms) + f",{report.ordered}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def chain_digests() -> dict:
    """{"<mean>/<i>/<form>": digest} of every pinned draw, in draw order."""
    out = {}
    for mi, text in enumerate(MEANS):
        spec = parse_mean(text)
        for i in DRAWS:
            rng = spawn_rng(909 + mi, i)
            f, g, b = _increasing_pair(rng)
            out[f"{text}/{i}/mean"] = _digest(integral_mean_chain(f, g, 0.0, b, spec, tol=1e-9))
            f, g, b = _suitable_pair(rng)
            out[f"{text}/{i}/logderiv"] = _digest(
                integral_logderiv_chain(f, g, 0.0, b, spec, inner_tol=1e-10, outer_tol=1e-8))
    return out


def test_criterion_09_chain_reports_are_pinned():
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    got = chain_digests()
    assert list(got) == list(pins)
    moved = [key for key in pins if got[key] != pins[key]]
    assert not moved, f"{len(moved)} of {len(pins)} reports moved: {moved[:10]}"


if __name__ == "__main__":
    digests = chain_digests()
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} pins to {PINS}")
