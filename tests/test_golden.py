"""``invariants`` output pinned byte for byte on ten fixed fronts, and
``chain`` on the 2- and 3-copy of the tb = 1 trefoil.

The ``invariants_*`` files under ``golden/`` were written by the
realization that sized the template by finite differences
(``oracles.fd_sizing_rows``) and placed basepoints by a grid search.  Face
basepoints are left out of them: any point inside its face serves, and the
corner-wedge placement moved them.  The ``chain_*`` files were written
when the candidate search gained its LP stop, the first version to finish
every degree-1 row of both copies.
"""

import json
from pathlib import Path

import pytest

from oracles import front_text, k_copy
from reebchords.cli import main
from reebchords.diagram import parse_front

GOLDEN = Path(__file__).parent / "golden"


def torus(n):
    return "L1,L3," + ",".join(["X2"] * n) + ",R1,R1 / surgery {0:+1}"


FRONTS = {f"t2_{n}": torus(n) for n in (3, 5, 9, 15, 21, 31)}
FRONTS.update({
    "trefoil_minus": "L1,L3,X2,X2,X2,R1,R1 / surgery {0:-1}",
    "hopf_plus_plus": "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
    "stab_unknot": "L1,L2,R1,R1 / orientations {0:-} / surgery {0:+1}",
    "nested_link": "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}",
})


@pytest.mark.parametrize("name", sorted(FRONTS))
def test_invariants_match_golden(name, tmp_path, capsys):
    path = tmp_path / "front.txt"
    path.write_text(FRONTS[name], encoding="utf-8")
    assert main(["invariants", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    for face in data["faces"]:
        del face["basepoint"]
    want = (GOLDEN / f"invariants_{name}.json").read_text(encoding="utf-8")
    assert json.dumps(data, indent=2) + "\n" == want


@pytest.mark.parametrize("k", [2, 3])
def test_chain_on_the_trefoil_k_copy_matches_golden(k, tmp_path, capsys):
    front = k_copy(parse_front(FRONTS["t2_3"]), k)
    path = tmp_path / "front.txt"
    path.write_text(front_text(front), encoding="utf-8")
    assert main(["chain", "--max-len", "1", "--epsilon", "1/100",
                 "--input", str(path)]) == 0
    want = (GOLDEN / f"chain_trefoil_{k}_copy.json").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == want
