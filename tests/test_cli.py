import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import front_text, k_copy
from reebchords.cli import main
from reebchords.diagram import parse_front
from test_lp import TREFOIL_2_COPY

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def write(tmp_path, text, name="front.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_command(tmp_path, capsys):
    path = write(tmp_path, "L1,R1 / surgery {0:-1}")
    code, out, _ = run(capsys, ["parse", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["components"] == 1
    assert data["left_cusps"] == 1
    assert data["right_cusps"] == 1
    assert data["surgery"] == {"0": -1}


def test_invariants_command_schema(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["invariants", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["tb"] == {"0": 1}
    assert data["rot"] == {"0": 0}
    assert len(data["chords"]) == 5
    for chord in data["chords"]:
        assert set(chord) == {"id", "sign", "tail", "tip", "tail_loc",
                              "tip_loc", "action"}
    assert len(data["faces"]) == 6
    for face in data["faces"]:
        assert {"id", "area", "basepoint", "corners"} <= set(face)


def test_rationals_as_fraction_strings(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["chain", "--input", path, "--max-len", "1",
                                "--epsilon", "1/100"])
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        num_den = row["orbit_action"].split("/")
        assert all(part.lstrip("-").isdigit() for part in num_den)


def test_orbits_and_cz_commands(tmp_path, capsys):
    path = write(tmp_path, "L1,R1 / surgery {0:-1}")
    code, out, _ = run(capsys, ["orbits", "--input", path, "--max-len", "3"])
    assert code == 0
    rows = json.loads(out)
    assert [r["word"] for r in rows] == ["(r1)", "(r1r1)", "(r1r1r1)"]
    code, out, _ = run(capsys, ["cz", "--input", path, "--max-len", "2"])
    rows = json.loads(out)
    assert rows[0]["cz"] == 1 and rows[1]["cz"] == 2


def test_chords_command(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,R1,R1 / surgery {1:+1}")
    code, out, _ = run(capsys, ["chords", "--input", path, "--max-len", "2"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2


def test_homology_and_quiver_commands(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["homology", "--input", path])
    assert code == 0
    assert json.loads(out)["group"] == "Z/2"
    code, out, _ = run(capsys, ["quiver", "--input", path])
    data = json.loads(out)
    assert len(data["edges"]) == 5


def test_grading_command(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["grading", "--input", path,
                                "--max-len", "1"])
    assert code == 0
    rows = json.loads(out)
    words = {r["word"] for r in rows}
    assert words == {"(r4)", "(r5)"}


def test_tsv_and_md_formats(tmp_path, capsys):
    path = write(tmp_path, "L1,R1 / surgery {0:-1}")
    code, out, _ = run(capsys, ["orbits", "--input", path, "--max-len", "1",
                                "--format", "tsv"])
    assert code == 0 and out.splitlines()[0] == "word\tlength\taction"
    code, out, _ = run(capsys, ["orbits", "--input", path, "--max-len", "1",
                                "--format", "md"])
    assert code == 0 and out.startswith("| word |")


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    path = write(tmp_path, "L5,R1")
    code, _out, err = run(capsys, ["parse", "--input", path])
    assert code == 2 and "input error" in err
    code, _out, err = run(capsys, ["orbits", "--input", path + ".missing",
                                   "--max-len", "1"])
    assert code == 2
    good = write(tmp_path, "L1,R1 / surgery {0:-1}", "ok.txt")
    code, _out, err = run(capsys, ["orbits", "--input", good,
                                   "--epsilon", "nonsense", "--max-len", "2"])
    assert code == 2
    code, _out, err = run(capsys, ["orbits", "--input", good])
    assert code == 2      # missing bounds


def test_out_of_range_bounds_exit_2(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for argv in (["chain", "--max-len", "2", "--epsilon", "0"],
                 ["chain", "--max-len", "2", "--epsilon=-1/100"],
                 ["orbits", "--max-len", "-1"],
                 ["orbits", "--max-action", "0"]):
        code, out, err = run(capsys, argv + ["--input", path])
        assert (code, out) == (2, "") and "input error" in err, argv


def test_homology_rejects_zero_bounds(tmp_path, capsys):
    # a bound of 0 is given, not missing: it must not drop the classes
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for argv, message in ((["--max-len", "0"], "--max-len must be at least 1"),
                          (["--max-action", "0"], "must be positive")):
        code, out, err = run(capsys, ["homology", "--input", path] + argv)
        assert (code, out) == (2, "") and message in err, argv


# the least action of a usable chord is 32 on both fronts: the surgered
# chords of the trefoil +1, and every chord of the Hopf link (0, +1)
SLACK_FRONTS = {"orbits": "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
                "chords": "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}"}


@pytest.mark.parametrize("command, action, eps", [
    ("orbits", "50", "10"), ("chords", "10", "300"),
    ("orbits", "50", "16/3"), ("chords", "100", "16/3")])
def test_slack_of_half_the_least_action_exits_2(tmp_path, capsys, command,
                                                action, eps):
    # the first two once ran away: no answer, or a RecursionError
    path = write(tmp_path, SLACK_FRONTS[command])
    code, out, err = run(capsys, [command, "--input", path, "--max-action",
                                  action, "--epsilon", eps])
    assert (code, out) == (2, "") and "epsilon too large" in err


@pytest.mark.parametrize("command, action, words", [
    ("orbits", "50", 20), ("chords", "100", 1)])
def test_slack_just_under_the_limit_enumerates(tmp_path, capsys, command,
                                               action, words):
    # 6 * 31/6 = 31 < 32; each letter adds more than 32 - 31/2 to the
    # action, so the orbits stop at length 3
    path = write(tmp_path, SLACK_FRONTS[command])
    code, out, _ = run(capsys, [command, "--input", path, "--max-action",
                                action, "--epsilon", "31/6"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == words
    assert max(row["length"] for row in rows) == (3 if command == "orbits"
                                                   else 2)


def test_cz_builds_each_index_and_return_map_once(tmp_path, capsys,
                                                   monkeypatch):
    from reebchords import cli, dynamics

    calls = {"cz": 0, "return_map": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "cz_integral", counted("cz", cli.cz_integral))
    return_map = counted("return_map", dynamics.return_map)
    monkeypatch.setattr(cli, "return_map", return_map)
    monkeypatch.setattr(dynamics, "return_map", return_map)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["cz", "--max-len", "3", "--input", path])
    assert code == 0
    n_words = len(json.loads(out))
    assert calls == {"cz": n_words, "return_map": n_words}


def test_homology_computes_each_class_once(tmp_path, capsys, monkeypatch):
    from reebchords import cli

    calls = []
    original = cli.orbit_class_monomial

    def counted(d, h1, w):
        calls.append(w.chords)
        return original(d, h1, w)

    monkeypatch.setattr(cli, "orbit_class_monomial", counted)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["homology", "--max-len", "3",
                                "--input", path])
    assert code == 0
    classes = json.loads(out)["classes"]
    assert len(classes) > 0
    assert len(calls) == len(set(calls)) == len(classes)


def test_chain_builds_one_record_and_return_map_per_word(tmp_path, capsys,
                                                          monkeypatch):
    from reebchords import dynamics, report

    built, maps = [], []

    class Counted(report.GeneratorRecord):
        __slots__ = ()

        def __init__(self, d, h1, w):
            built.append(w.chords)
            super().__init__(d, h1, w)

    def counted(d, w):
        maps.append(w.chords)
        return return_map(d, w)

    return_map = dynamics.return_map
    monkeypatch.setattr(report, "GeneratorRecord", Counted)
    monkeypatch.setattr(dynamics, "return_map", counted)
    path = write(tmp_path, "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}")
    code, out, _ = run(capsys, ["chain", "--max-len", "3", "--epsilon",
                                "1/100", "--input", path])
    assert code == 0
    rows = json.loads(out)
    # even covers ask is_bad about their primitive word, and degree-1
    # generators search a pool of records
    assert any(not row["good"] for row in rows)
    assert any("candidates" in row for row in rows)
    assert len(built) == len(set(built)) >= len(rows)
    assert sorted(maps) == sorted(built)


def test_exit_code_3_on_internal_violation(tmp_path, capsys, monkeypatch):
    from reebchords import cli
    from reebchords.diagram import DiagramError

    def boom(args):
        raise DiagramError("forced")

    monkeypatch.setitem(cli.COMMANDS, "invariants", boom)
    path = write(tmp_path, "L1,R1")
    code, _out, err = run(capsys, ["invariants", "--input", path])
    assert code == 3 and "internal invariant" in err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("L1,R1 / surgery {0:-1}"))
    code, out, _ = run(capsys, ["parse", "--input", "-"])
    assert code == 0
    assert json.loads(out)["components"] == 1


def test_exit_code_3_on_realization_fault(tmp_path, capsys, monkeypatch):
    def overlap(s1, s2):
        raise ValueError(f"collinear overlap between {s1} and {s2}")

    monkeypatch.setattr("reebchords.diagram.segment_intersection", overlap)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1")
    code, _out, err = run(capsys, ["invariants", "--input", path])
    assert code == 3 and "collinear overlap" in err


def test_exit_code_3_on_a_class_fault_in_the_grading(tmp_path, capsys,
                                                     monkeypatch):
    # grading keeps the null-homologous words only, so a class that is not
    # zero inside i_grading is an internal fault
    from reebchords import quiver
    from reebchords.homology import OrbitClass

    def skewed(d, h1, w):
        return OrbitClass(h1, [1] * len(h1.surgered))

    monkeypatch.setattr(quiver, "orbit_class_monomial", skewed)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["grading", "--max-len", "1", "--input",
                                  path])
    assert (code, out) == (3, "") and "not null-homologous" in err, err


def test_bad_coefficient_values_exit_2(tmp_path, capsys):
    for text in ("L1,R1 / surgery {0:x}", "L1,R1 / orientations {0:++}",
                 "L1,R1 / surgery {0:}"):
        code, _out, err = run(capsys, ["parse", "--input", write(tmp_path,
                                                                 text)])
        assert code == 2 and "input error" in err


def test_chain_reports_why_orbit_action_is_missing(tmp_path, capsys):
    # at epsilon 1/2 the fixed-point system of (r4) and (r5) is singular
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["chain", "--input", path, "--max-len", "1",
                                "--epsilon", "1/2"])
    assert code == 0
    rows = {row["word"]: row for row in json.loads(out)}
    for word in ("(r4)", "(r5)"):
        assert "orbit_action" not in rows[word]
        assert rows[word]["orbit_action_error"] == \
            f"I - A singular for {word} at epsilon 1/2"
    for word in ("(r1)", "(r2)", "(r3)"):
        assert "orbit_action" in rows[word]
        assert "orbit_action_error" not in rows[word]


def test_grading_and_chain_compute_each_class_once(tmp_path, capsys,
                                                   monkeypatch):
    from reebchords import homology, report

    classes, records = [], []

    class CountedClass(homology.OrbitClass):
        __slots__ = ()

        def __init__(self, h1, vector):
            classes.append(tuple(vector))
            super().__init__(h1, vector)

    class CountedRecord(report.GeneratorRecord):
        __slots__ = ()

        def __init__(self, d, h1, w):
            records.append(w.chords)
            super().__init__(d, h1, w)

    monkeypatch.setattr(homology, "OrbitClass", CountedClass)
    monkeypatch.setattr(report, "GeneratorRecord", CountedRecord)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    bounds = ["--max-len", "3", "--input", path]
    code, out, _ = run(capsys, ["orbits"] + bounds)
    n_words = len(json.loads(out))
    code, out, _ = run(capsys, ["grading"] + bounds)
    assert code == 0
    # class-zero words have a grading row, and their class is not computed
    # again for it
    assert 0 < len(json.loads(out)) < n_words == len(classes)
    classes.clear()
    code, out, _ = run(capsys, ["chain", "--epsilon", "1/100"] + bounds)
    assert code == 0
    assert any("igrading" in row for row in json.loads(out))
    assert len(classes) == len(records) == len(set(records))


def test_chain_fractional_fiber_difference_exit_3(tmp_path, capsys,
                                                  monkeypatch):
    # the class filter admits only null-homologous products, whose fiber
    # sums are integral; a fractional difference is an internal fault
    from reebchords import report

    original = report.effective_fiber_vector

    def skewed(d, h1, w, s=None):
        vec = original(d, h1, w, s)
        if w.chords == (1,):
            vec = (vec[0] - F(1, 2),) + vec[1:]
        return vec

    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    argv = ["chain", "--max-len", "2", "--epsilon", "1/100", "--input", path]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "(r1)(r2)" in out
    monkeypatch.setattr(report, "effective_fiber_vector", skewed)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "fractional fiber count on a null-homologous collection" in err


def test_chain_on_item4_input_completes_with_bounded_work(tmp_path, capsys,
                                                          monkeypatch):
    # T(2,5) with -1 surgery: the pool holds words of degree -1, and some
    # generators have 10^4-10^5 survivors, so their searches stop at the
    # survivor bound and say so
    from reebchords import cli, report

    reports = []

    def kept(*args, **kwargs):
        rep = report.differential_candidates(*args, **kwargs)
        reports.append(rep)
        return rep

    monkeypatch.setattr(cli, "differential_candidates", kept)
    path = write(tmp_path, "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}")
    code, out, _ = run(capsys, ["chain", "--max-len", "3", "--epsilon",
                                "1/100", "--input", path])
    assert code == 0
    rows = [row for row in json.loads(out) if "candidates" in row]
    assert len(rows) == len(reports) > 0
    truncated = [row for row in rows if "truncated" in row]
    assert 0 < len(truncated) < len(rows)
    for row, rep in zip(rows, reports):
        assert row.get("truncated") == rep.truncated
    for row in truncated:
        assert row["truncated"] == "survivors"
        assert len(row["candidates"]) == report.MAX_SURVIVORS
    # 10,308 products examined in all when written; without the
    # degree-reachability prune each of the 21 searches stops at MAX_NODES
    assert sum(rep.nodes for rep in reports) < 25_000


@pytest.mark.parametrize("command", ["chain", "grading"])
def test_command_leaves_no_cyclic_garbage(tmp_path, capsys, command):
    # with the cycle collector off, everything the command built must
    # already be freed by reference counting
    import gc

    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    argv = [command, "--max-len", "2", "--epsilon", "1/100", "--input", path]
    gc.collect()
    gc.disable()
    try:
        code, _out, _err = run(capsys, argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert code == 0
    assert not left & {"ResolvedDiagram", "CyclicWord", "GeneratorRecord",
                       "Candidate"}


@pytest.mark.parametrize("command", ["parse", "invariants"])
@pytest.mark.parametrize("text", [
    '{"events": [["L"]]}',
    '{"events": [5]}',
    '{"events": null}',
    '{"events": ["L1", "L2", "R1", "R1"], "surgery": [1]}',
    '{"events": ["L1", "R1"], "orientations": "+"}',
    '{"events": []}',
    '{"surgery": {"0": 1}}',
    '{"events": [["L", 1.5], ["R", 1]]}',
    '{"events": [["L", true], ["R", 1]]}',
    '{"events": [["L", "1"], ["R", 1]]}',
    '{"events": [["Q", 1], ["R", 1]]}',
])
def test_malformed_json_front_exits_2(tmp_path, capsys, command, text):
    path = write(tmp_path, text)
    code, out, err = run(capsys, [command, "--input", path])
    assert (code, out) == (2, "") and err.startswith("input error:"), err


@pytest.mark.parametrize("command", ["parse", "invariants"])
@pytest.mark.parametrize("text", [
    '{"events": ["L1", "R1"], "surgery": {"0": 1.5}, '
    '"orientations": {"0": -1.9}}',
    '{"events": ["L1", "R1"], "surgery": {"0": true}}',
    '{"events": ["L1", "R1"], "orientations": {"0": true}}',
    '{"events": ["L1", "R1"], "surgery": {"0": " 1"}}',
    '{"events": ["L1", "R1"], "surgery": {"0": 1, "0": -1}}',
    '{"events": ["L1", "R1"], "surgery": {"0": 1, "00": -1}}',
    "L1,R1 / surgery {0:+1, 0:-1}",
    "L1,R1 / orientations {0:+, 00:-}",
])
def test_loose_or_repeated_coefficients_exit_2(tmp_path, capsys, command,
                                               text):
    path = write(tmp_path, text)
    code, out, err = run(capsys, [command, "--input", path])
    assert (code, out) == (2, "") and err.startswith("input error:"), err


TREFOIL_PLUS = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"
# contact 1/3 surgery on the tb = 1 trefoil: +1 surgery on three Reeb
# push-offs of it
TREFOIL_3_COPY = ("L1,L1,L1,X2,X4,X3,L7,L7,L7,X8,X10,X9,X6,X5,X4,X7,X6,X5,"
                  "X8,X7,X6,X6,X5,X4,X7,X6,X5,X8,X7,X6,X6,X5,X4,X7,X6,X5,"
                  "X8,X7,X6,X3,X2,X4,R1,R1,R1,X3,X2,X4,R1,R1,R1 "
                  "/ surgery {0:+1, 1:+1, 2:+1}")


def test_k_copy_builder_gives_the_pinned_copies(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import cli_diff

    trefoil = parse_front(TREFOIL_PLUS)
    copies = {k: front_text(k_copy(trefoil, k)) for k in (1, 2, 3, 4)}
    assert copies[1] == TREFOIL_PLUS
    assert copies[2] == TREFOIL_2_COPY == cli_diff.TREFOIL_2_COPY
    assert copies[3] == TREFOIL_3_COPY == cli_diff.TREFOIL_3_COPY
    assert copies[4] == cli_diff.TREFOIL_4_COPY


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_certifies_every_degree_one_row_of_the_trefoil_k_copy(
        tmp_path, capsys, k):
    # contact 1/k surgery on the tb = 1 trefoil: each good degree-1 row has
    # the constant term as its complete candidate list, with one witness
    path = write(tmp_path, front_text(k_copy(parse_front(TREFOIL_PLUS), k)))
    code, out, _ = run(capsys, ["homology", "--input", path])
    assert code == 0 and json.loads(out)["group"] == f"Z/{k + 1}"
    code, out, err = run(capsys, ["chain", "--max-len", "1", "--epsilon",
                                  "1/100", "--input", path])
    assert code == 0, err
    rows = [row for row in json.loads(out)
            if row["good"] and row["degree"] == 1]
    assert len(rows) == 2 * k
    for row in rows:
        assert "truncated" not in row, row["word"]
        [constant] = row["candidates"]
        assert (constant["monomial"], constant["count"]) == ("1", "+-1")
        assert len(constant["faces"]) == 1
