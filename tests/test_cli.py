import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from oracles import front_text, k_copy, passage_arcs
import reebchords
from reebchords import words
from reebchords.cli import json_text, main
from reebchords.diagram import (DiagramError, FrontCode, ResolvedDiagram,
                                parse_front, resolve)
from reebchords.report import _pool_length_cap
from test_lp import TREFOIL_2_COPY
from test_realization import seeded_fronts, surgered_front
from test_report import FEASIBLE_LP_FRONT, HOPF_MINUS

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


def test_orbit_words_past_their_bound_exit_2(tmp_path, capsys,
                                             monkeypatch):
    """The trefoil +1 has 859 orbit words of length at most 5 and 3,494
    of length at most 6.  Under a bound of 1,000 words and open prefixes
    the first enumeration runs and the second exits 2, naming the bound."""
    monkeypatch.setattr(words, "MAX_WORD_NODES", 1000)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, _ = run(capsys, ["orbits", "--input", path, "--max-len", "5"])
    assert code == 0 and len(json.loads(out)) == 859
    code, out, err = run(capsys, ["orbits", "--input", path, "--max-len", "6"])
    assert code == 2 and out == ""
    assert "MAX_WORD_NODES = 1000" in err


@pytest.mark.parametrize("front, bound", [
    ("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}", "MAX_WORD_NODES = 100000"),
    ("L1,R1 / surgery {0:-1}", "MAX_WORD_LENGTH = 64")],
    ids=["trefoil+1", "unknot-1"])
def test_orbits_at_a_huge_length_bound_exit_2_in_bounded_memory(front,
                                                                bound):
    """``orbits --max-len 100000`` under a 1 GiB address space: every node
    packs its return-map rows at the width of MAX_WORD_LENGTH letters, not
    of the length bound, so the trefoil +1 reaches MAX_WORD_NODES and the
    unknot -1, one word per length, reaches MAX_WORD_LENGTH; each exits 2
    and names its bound rather than run out of memory."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(reebchords.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "reebchords.cli", "orbits", "--max-len",
         "100000", "--input", "-"], input=front, capture_output=True,
        text=True, preexec_fn=limit, timeout=60, check=False,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2 and done.stdout == ""
    assert bound in done.stderr


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


def test_unreadable_input_exits_2(tmp_path, capsys, monkeypatch):
    from reebchords import cli

    code, out, err = run(capsys, ["invariants", "--input", str(tmp_path)])
    assert (code, out) == (2, "") and err.startswith("input error:"), err

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # root may read any file, so the refusal is planted
    monkeypatch.setattr(cli, "open", denied, raising=False)
    path = write(tmp_path, "L1,R1 / surgery {0:-1}")
    code, out, err = run(capsys, ["parse", "--input", path])
    assert (code, out) == (2, "") and err.startswith("input error:"), err
    assert "Permission denied" in err


def test_out_of_range_bounds_exit_2(tmp_path, capsys):
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for argv in (["chain", "--max-len", "2", "--epsilon", "0"],
                 ["chain", "--max-len", "2", "--epsilon=-1/100"],
                 ["orbits", "--max-len", "-1"],
                 ["orbits", "--max-action", "0"]):
        code, out, err = run(capsys, argv + ["--input", path])
        assert (code, out) == (2, "") and "input error" in err, argv


def test_an_empty_bound_value_exits_2(tmp_path, capsys):
    # an empty value is given, not missing: it must not drop the bound
    path = write(tmp_path, "L1,R1 / surgery {0:-1}")
    for option in ("--max-action=", "--epsilon="):
        code, out, err = run(capsys, ["orbits", "--max-len", "1", option,
                                      "--input", path])
        assert (code, out) == (2, "") and "bad rational ''" in err, option


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
    # the record builds its return map through report's binding
    monkeypatch.setattr(report, "return_map", counted)
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


def test_resolve_and_invariants_build_no_letters(tmp_path, capsys,
                                                 monkeypatch):
    """Letters are built on first use: resolving builds none, and so does
    the invariants command, while cz does."""
    text = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"
    assert ("letters",) not in resolve(parse_front(text)).memo
    built = []
    letter = ResolvedDiagram.letter

    def counted(d, j1, j2):
        built.append((j1, j2))
        return letter(d, j1, j2)

    monkeypatch.setattr(ResolvedDiagram, "letter", counted)
    path = write(tmp_path, text)
    assert run(capsys, ["invariants", "--input", path])[0] == 0
    assert built == []
    assert run(capsys, ["cz", "--max-len", "1", "--input", path])[0] == 0
    assert built


def test_a_reader_closing_standard_output_early_exits_0(tmp_path):
    """A reader that takes one line and closes the pipe is neither bad input
    nor a fault: exit 0 with nothing on standard error.  The output (about
    260 kB) is larger than a pipe holds, so the command is still writing."""
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    src = str(Path(reebchords.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "reebchords.cli", "orbits", "--max-len", "6",
         "--input", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_one_parser_serves_every_command_line_of_a_process(tmp_path):
    """Importing the CLI builds no parser; the first command line builds
    it.  After a command line that it refuses (exit 2), the same process
    runs a good one, and each prints what it prints in a fresh process."""
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    bad = ["cz", "--max-len", "two", "--input", path]
    good = ["cz", "--max-len", "2", "--input", path]
    env = dict(os.environ, PYTHONPATH=str(
        Path(reebchords.__file__).resolve().parent.parent))

    def python(*args):
        done = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=60, check=False)
        return done.stdout, done.stderr, done.returncode

    script = ("import sys\n"
              "from reebchords import cli\n"
              "print(cli._parser.cache_info().currsize, file=sys.stderr)\n"
              "try:\n"
              "    cli.main(sys.argv[1:6])\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, file=sys.stderr)\n"
              "sys.exit(cli.main(sys.argv[6:]))\n")
    fresh_bad = python("-m", "reebchords.cli", *bad)
    fresh_good = python("-m", "reebchords.cli", *good)
    assert fresh_bad[2] == 2 and fresh_good[2] == 0
    assert python("-c", script, *bad, *good) == (
        fresh_bad[0] + fresh_good[0], "0\n" + fresh_bad[1] + "2\n"
        + fresh_good[1], 0)


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
    # a geometry helper's ValueError inside resolve is an internal fault
    def no_octant(a, b):
        raise ValueError(f"segment {a}->{b} is not at a multiple of 45 "
                         f"degrees")

    monkeypatch.setattr("reebchords.diagram.direction_octant", no_octant)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1")
    code, _out, err = run(capsys, ["invariants", "--input", path])
    assert code == 3 and "multiple of 45 degrees" in err


def test_exit_code_3_on_a_basepoint_on_the_curve(tmp_path, capsys,
                                                 monkeypatch):
    # a face basepoint planted on a component vertex: the components'
    # windings around it are undefined, an internal fault
    from reebchords.diagram import ResolvedDiagram

    original = ResolvedDiagram._pick_basepoints

    def on_a_vertex(self):
        original(self)
        self.faces_list[0].basepoint = self.components[0][0]

    monkeypatch.setattr(ResolvedDiagram, "_pick_basepoints", on_a_vertex)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["grading", "--max-len", "2", "--input",
                                  path])
    assert code == 3 and out == ""
    assert "winding test point lies on the curve" in err


def test_exit_code_3_on_a_basepoint_on_a_push_out_step(tmp_path, capsys,
                                                      monkeypatch):
    # a face basepoint planted inside the first offset step of the trefoil's
    # passage arcs: push-outs have one offset, so this is an internal fault
    from reebchords.diagram import ResolvedDiagram
    from reebchords.geometry import offset_polyline
    from reebchords.words import PUSH_OFF

    original = ResolvedDiagram._pick_basepoints

    def on_a_step(self):
        original(self)
        (ax, ay), (bx, by) = offset_polyline(passage_arcs(self)[0][0],
                                             "left", PUSH_OFF)[:2]
        self.faces_list[0].basepoint = ((ax + bx) / 2, (ay + by) / 2)

    monkeypatch.setattr(ResolvedDiagram, "_pick_basepoints", on_a_step)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["grading", "--max-len", "2", "--input",
                                  path])
    assert code == 3 and out == ""
    assert "push-out piece meets a face basepoint" in err


def test_exit_code_3_on_a_rejected_basepoint(tmp_path, capsys, monkeypatch):
    # the one candidate basepoint of each face fails its check
    from reebchords.diagram import ResolvedDiagram

    monkeypatch.setattr(ResolvedDiagram, "_good_basepoint",
                        staticmethod(lambda *args: False))
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1")
    code, out, err = run(capsys, ["invariants", "--input", path])
    assert code == 3 and out == ""
    assert "no basepoint found for face 1" in err


def test_exit_code_3_on_a_push_out_fault(tmp_path, capsys, monkeypatch):
    # a geometry helper's ValueError while offsetting a passage arc of the
    # resolved diagram is an internal fault
    def no_octant(a, b):
        raise ValueError(f"segment {a}->{b} is not at a multiple of 45 "
                         f"degrees")

    monkeypatch.setattr("reebchords.geometry.direction_octant", no_octant)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["grading", "--max-len", "2", "--input",
                                  path])
    assert code == 3 and out == ""
    assert "push-out fault" in err and "multiple of 45 degrees" in err


def test_exit_code_3_on_an_infeasible_sizing_lp(tmp_path, capsys,
                                                monkeypatch):
    # one more sizing row, -sum(theta) >= 1, leaves no point with theta >= 0
    from reebchords import diagram

    original = diagram._sizing_rows

    def infeasible(*args):
        n, eq, ge = original(*args)
        return n, eq, ge + [([-1] * n, 1)]

    monkeypatch.setattr(diagram, "_sizing_rows", infeasible)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1")
    code, out, err = run(capsys, ["invariants", "--input", path])
    assert code == 3 and out == ""
    assert "no template sizing" in err


@pytest.mark.parametrize("front, column, by", [
    ("L1,L3,X2,X2,X2,R1,R1", 0, 1),
    ("L1,L3,X2,X2,R1,R1", -1, 10 ** 6)], ids=["closure", "z-gap"])
def test_exit_code_3_when_the_sizing_solution_breaks_a_row(
        tmp_path, capsys, monkeypatch, front, column, by):
    # the trefoil's first loop stretch raised by 1 leaves its closure
    # integral nonzero; the Hopf link's last shift column (s- of component
    # 1) raised by 10^6 sinks that component below the other one
    from reebchords import diagram

    original = diagram.solve_lp

    def broken(*args, **kwargs):
        theta = original(*args, **kwargs)
        theta[column] += by
        return theta

    monkeypatch.setattr(diagram, "solve_lp", broken)
    with pytest.raises(DiagramError, match="breaks a closure or z-gap row"):
        diagram.resolve(parse_front(front))
    code, out, err = run(capsys, ["invariants", "--input",
                                  write(tmp_path, front)])
    assert code == 3 and out == ""
    assert "breaks a closure or z-gap row" in err


def test_exit_code_3_on_a_class_vector_of_the_wrong_length(
        tmp_path, capsys, monkeypatch):
    from reebchords import cli
    from reebchords.homology import OrbitClass

    original = cli.orbit_class_monomial

    def longer(d, h1, w):
        return OrbitClass(h1, original(d, h1, w).vector + (0,))

    monkeypatch.setattr(cli, "orbit_class_monomial", longer)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["homology", "--max-len", "1", "--input",
                                  path])
    assert code == 3 and out == ""
    assert "vector length does not match presentation" in err


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


def test_exit_code_3_on_a_word_with_an_unsurgered_chord(tmp_path, capsys,
                                                        monkeypatch):
    # the enumerators draw cyclic words from the surgered chords only, so a
    # word that touches an unsurgered component is an internal fault
    from reebchords import words

    monkeypatch.setattr(words, "surgered_chords",
                        lambda d: [c.id for c in d.chords])
    path = write(tmp_path, "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}")
    code, out, err = run(capsys, ["orbits", "--max-len", "1", "--input",
                                  path])
    assert (code, out) == (3, "") and "unsurgered component" in err, err


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


def test_exit_code_3_on_an_embedding_fault_in_chain(tmp_path, capsys,
                                                    monkeypatch):
    # a chain row reports only the epsilon-dependent ValueErrors of
    # orbit_action; a DiagramError inside embed_orbit is an internal fault
    from reebchords import dynamics
    from reebchords.diagram import DiagramError

    def broken(d, w, epsilon):
        raise DiagramError(f"fixed point of {w} does not close up")

    monkeypatch.setattr(dynamics, "embed_orbit", broken)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["chain", "--max-len", "1", "--epsilon",
                                  "1/100", "--input", path])
    assert (code, out) == (3, "") and "does not close up" in err, err


def test_grading_and_chain_compute_each_class_once(tmp_path, capsys,
                                                   monkeypatch):
    """An ``OrbitClass`` is built once per distinct class vector of a
    diagram, and every word with that vector holds the same object."""
    from reebchords import homology, report

    classes, records = [], []

    class CountedClass(homology.OrbitClass):
        __slots__ = ()

        def __init__(self, h1, vector):
            super().__init__(h1, vector)
            classes.append(self)

    class CountedRecord(report.GeneratorRecord):
        __slots__ = ()

        def __init__(self, d, h1, w):
            super().__init__(d, h1, w)
            records.append(self)

    monkeypatch.setattr(homology, "OrbitClass", CountedClass)
    monkeypatch.setattr(report, "GeneratorRecord", CountedRecord)
    path = write(tmp_path, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    bounds = ["--max-len", "3", "--input", path]
    code, out, _ = run(capsys, ["orbits"] + bounds)
    n_words = len(json.loads(out))
    code, out, _ = run(capsys, ["grading"] + bounds)
    assert code == 0
    # class-zero words have a grading row; the 65 words have 7 vectors
    assert 0 < len(json.loads(out)) < n_words == 65
    assert len(classes) == len({c.vector for c in classes}) == 7
    classes.clear()
    code, out, _ = run(capsys, ["chain", "--epsilon", "1/100"] + bounds)
    assert code == 0
    assert any("igrading" in row for row in json.loads(out))
    by_vector = {c.vector: c for c in classes}
    assert len(classes) == len(by_vector) == 7
    assert len(records) == len({r.word.chords for r in records}) == n_words
    assert all(r.orbit_class is by_vector[r.orbit_class.vector]
               for r in records)


def test_shared_classes_are_never_written(monkeypatch):
    """``chain --max-len 2`` on the trefoil 2-copy and on a seeded
    cancelling 2-copy leaves every memoized ``OrbitClass``, each shared by
    every word of its vector, equal to a freshly built one."""
    from reebchords import cli
    from reebchords.homology import OrbitClass, h1_presentation

    rng = random.Random(1)
    front = surgered_front(rng)
    while len(front.events) > 7 or front.n_components > 2:
        front = surgered_front(rng)
    copy = k_copy(front, 2)
    cancelling = front_text(FrontCode(copy.events, copy.orientations, {
        c: (-1) ** c for c in range(copy.n_components)}))
    diagrams = []
    real = cli.resolve
    monkeypatch.setattr(cli, "resolve",
                        lambda *args: diagrams.append(real(*args))
                        or diagrams[-1])
    for text in (TREFOIL_2_COPY, cancelling):
        code, out = run_text(["chain", "--max-len", "2", "--epsilon",
                              "1/100"], text)
        assert code == 0 and json.loads(out)
        d = diagrams.pop()
        h1 = h1_presentation(d)
        shared = {id(v): v for v in d.memo.values()
                  if isinstance(v, OrbitClass)}.values()
        words = [k for k in d.memo if k[0] == "class"]
        assert len(shared) < len(words)
        for cls in shared:
            fresh = OrbitClass(h1, cls.vector)
            assert (cls.vector, cls.lift, cls.reduced) == \
                (fresh.vector, fresh.lift, fresh.reduced)


@pytest.mark.parametrize("text", [
    "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}",
    "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}"],
    ids=["hopf0+", "nested"])
def test_letter_on_a_coefficient_0_chord_is_a_fault(tmp_path, capsys, text):
    # letters exist only on the surgered sublink; every composable pair
    # with a chord end on the coefficient-0 component has none, including
    # pairs whose capping arc rides a surgered component, and the commands
    # that read chords there never ask for one
    d = resolve(parse_front(text))
    pairs = [(a, b) for a in d.chords for b in d.chords
             if d.composable(a.id, b.id) and not all(
                 d.surgery[c.tail_comp] and d.surgery[c.tip_comp]
                 for c in (a, b))]
    assert any(d.surgery[a.tip_comp] != 0 for a, _b in pairs)
    for a, b in pairs:
        with pytest.raises(DiagramError, match="unsurgered component"):
            d.letter(a.id, b.id)
    path = write(tmp_path, text)
    for argv in (["chain", "--max-len", "3", "--epsilon", "1/100"],
                 ["chords", "--max-len", "3"]):
        code, out, err = run(capsys, argv + ["--input", path])
        assert code == 0 and json.loads(out), (argv, err)


def test_chain_fractional_fiber_difference_exit_3(tmp_path, capsys,
                                                  monkeypatch):
    # the class filter admits only null-homologous products, whose fiber
    # sums are integral; a fractional difference is an internal fault.
    # Fiber vectors are ints over H1's exponent, 2 on the trefoil +1, so
    # taking 1 off the scaled vector takes off 1/2
    from reebchords import report

    original = report.effective_fiber_vector

    def skewed(d, h1, w):
        vec = original(d, h1, w)
        assert h1.exponent == 2
        if w.chords == (1,):
            vec = (vec[0] - 1,) + vec[1:]
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

    reports = {}

    def kept(*args, **kwargs):
        reps = report.candidate_reports(*args, **kwargs)
        reports.update((cli.word_name(chords), rep)
                       for chords, rep in reps.items())
        return reps

    monkeypatch.setattr(cli, "candidate_reports", kept)
    path = write(tmp_path, "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}")
    code, out, _ = run(capsys, ["chain", "--max-len", "3", "--epsilon",
                                "1/100", "--input", path])
    assert code == 0
    rows = [row for row in json.loads(out) if "candidates" in row]
    assert len(rows) == len(reports) > 0
    truncated = [row for row in rows if "truncated" in row]
    assert 0 < len(truncated) < len(rows)
    for row in rows:
        assert row.get("truncated") == reports[row["word"]].truncated
    for row in truncated:
        assert row["truncated"] == "survivors"
        assert len(row["candidates"]) == report.MAX_SURVIVORS
    # 10,308 products examined in all when written; without the
    # degree-reachability prune each of the 21 searches stops at MAX_NODES
    assert sum(rep.nodes for rep in reports.values()) < 25_000


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
    '{"events": ["L1", "L2", "X1", "R1", "R1"], "surgey": {"0": 1}}',
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
    "L1,R1 / surgery {0:+1} / surgery {0:-1}",
    "L1,R1 / orientations {0:+} / surgery {0:+1} / orientations {0:-}",
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


DIFF_COMMANDS = [
    ("trefoil invariants", ["invariants"], TREFOIL_PLUS),
    ("trefoil chain", ["chain", "--max-len", "1", "--epsilon", "1/100"],
     TREFOIL_PLUS)]


@pytest.fixture
def cli_diff(monkeypatch):
    """``tools/cli_diff.py`` with ``DIFF_COMMANDS`` as its command list."""
    monkeypatch.syspath_prepend(str(TOOLS))
    import cli_diff

    monkeypatch.setattr(cli_diff, "commands", lambda: DIFF_COMMANDS)
    return cli_diff


def src_tree(tmp_path, name):
    """A copy of this checkout's ``src/reebchords`` under tmp_path/name."""
    root = tmp_path / name
    shutil.copytree(Path(reebchords.__file__).parent,
                    root / "src" / "reebchords",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_cli_diff_finds_no_difference_between_identical_trees(
        tmp_path, cli_diff):
    res_a, res_b = (cli_diff.run_tree(str(src_tree(tmp_path, name)),
                                      DIFF_COMMANDS) for name in "ab")
    assert [code for _out, _err, code in res_a] == [0, 0]
    assert res_a == res_b
    assert cli_diff.differences(DIFF_COMMANDS, res_a, res_b) == []


def test_cli_diff_reports_a_changed_label(tmp_path, capsys, cli_diff):
    base, change = src_tree(tmp_path, "base"), src_tree(tmp_path, "change")
    report = change / "src" / "reebchords" / "report.py"
    text = report.read_text()
    assert "(bubbling face witness)" in text
    report.write_text(text.replace("(bubbling face witness)", "(witness)"))
    assert cli_diff.main([str(base), str(change)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("== ")] == \
        ["== trefoil chain: chain --max-len 1 --epsilon 1/100"]
    assert "2 commands, 1 with differences" in out


def test_cli_diff_names_each_module_whose_line_count_differs(
        tmp_path, capsys, cli_diff):
    """Identical trees print the two summary lines and no module; with one
    line added to words.py, that module follows them with both counts."""
    base, change = src_tree(tmp_path, "base"), src_tree(tmp_path, "change")
    total = sum(cli_diff.src_lines(str(base)).values())
    assert cli_diff.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "2 commands, 0 with differences",
        f"src lines: base {total}, change {total}"]
    words_py = change / "src" / "reebchords" / "words.py"
    text = words_py.read_text()
    words_py.write_text(text + "# one more line\n")
    n = text.count("\n")
    assert cli_diff.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "2 commands, 0 with differences",
        f"src lines: base {total}, change {total + 1}",
        f"  words.py: base {n}, change {n + 1}"]


def test_cli_diff_exits_2_when_a_worker_fails(tmp_path, capsys, cli_diff):
    broken = src_tree(tmp_path, "broken")
    (broken / "src" / "reebchords" / "__init__.py").write_text(
        "raise ImportError('broken tree')\n")
    assert cli_diff.main([str(src_tree(tmp_path, "base")), str(broken)]) == 2
    assert "a worker failed" in capsys.readouterr().err


def bench_diff(tmp_path, new):
    """bench_diff's (exit code, {run: {metric: ratio text}}) of
    ``BENCH_31.json`` against ``new``, written to a file."""
    path = tmp_path / "new.json"
    path.write_text(json.dumps(new))
    done = subprocess.run(
        [sys.executable, str(TOOLS / "bench_diff.py"),
         str(TOOLS.parent / "BENCH_31.json"), str(path)],
        capture_output=True, text=True, check=False)
    runs = {}
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            run = runs.setdefault(line[3:], {})
        else:
            name, *_rest, ratio = line.split()
            run[name] = ratio
    return done.returncode, runs


def test_bench_diff_prints_each_metric_with_its_ratio(tmp_path):
    """Against itself every printed ratio is 1: each workload's trace 0
    metrics and its trace 1 self seconds and call counts.  With one value
    doubled, that line alone reads 2."""
    bench = json.loads((TOOLS.parent / "BENCH_31.json").read_text())
    code, runs = bench_diff(tmp_path, bench)
    assert code == 0 and sorted(runs) == sorted(bench["runs"])
    assert set(runs["search-seed1-trace0"]) == {
        "fronts_per_s", "op_s_p50", "op_s_tail", "peak_rss_mb", "setup_s"}
    assert {"lp.solve_lp.s", "lp.solve_lp.calls"} <= \
        set(runs["search-seed1-trace1"])
    assert not any(name.endswith(("_s_per_event", ".survivors"))
                   for name in runs["search-seed1-trace1"])
    assert {ratio for run in runs.values() for ratio in run.values()} == \
        {"1.000"}
    bench["runs"]["search-seed1-trace0"]["metrics"]["fronts_per_s"][
        "value"] *= 2
    code, changed = bench_diff(tmp_path, bench)
    runs["search-seed1-trace0"]["fronts_per_s"] = "2.000"
    assert code == 0 and changed == runs


def test_bench_pairs_reads_each_median_change_against_its_bound(
        monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    metrics = [{"name": "fronts_per_s", "unit": "1/s", "better": "higher",
                "bound": 0.25},
               {"name": "op_s_p50", "unit": "s", "better": "lower",
                "bound": 0.25}]

    def runs(values):
        return [{"metrics": {"fronts_per_s": {"value": f},
                             "op_s_p50": {"value": s}}} for f, s in values]

    header, fronts, p50 = bench_pairs.summary(
        metrics, runs([(100, 0.02), (90, 0.02), (110, 0.02)]),
        runs([(120, 0.025), (80, 0.03), (110, 0.02)]))
    # medians 100 -> 110 and 0.02 -> 0.025, interquartile ranges 10 and 20,
    # 0 and 0.005; B is better in pair 1 only on fronts_per_s (a tie is no
    # win), and in none on op_s_p50
    assert header.split()[6:10] == ["A", "IQR", "B", "IQR"]
    assert fronts.split()[4:] == ["10", "20", "+10.00%", "1/3", "0.25",
                                  "+0.40", "within"]
    assert p50.split()[4:] == ["0", "0.005", "-25.00%", "0/3", "0.25",
                               "-1.00", "worse"]
    assert header.split()[-1] == "verdict"
    # the claim rule: B better in 9 of 10 pairs and a median change past
    # A's interquartile range (1.5, at quartiles 99.25 and 100.75) is a gain;
    # with that change no larger than the range, or in 8 of 10 pairs, it
    # is not; A's range over the bound leaves the metric unresolved
    base = [99, 99, 99, 100, 100, 100, 100, 101, 101, 101]

    def read(a, b):
        return [line.split()[-1] for line in bench_pairs.summary(
            metrics[:1], runs([(v, 0.02) for v in a]),
            runs([(v, 0.02) for v in b]))[1:]]

    assert read(base, [v + 3 for v in base[:9]] + [100]) == ["gain"]
    assert read(base, [v + 1.5 for v in base]) == ["within"]
    assert read(base, [v + 3 for v in base[:8]] + [100, 100]) == ["within"]
    assert read(base, [v - 30 for v in base]) == ["worse"]
    assert read([60, 100, 140], [90, 130, 170]) == ["unresolved"]
    assert bench_pairs.verdict(0.05, 0.02, 9, 10, 0.25) == "gain"
    assert bench_pairs.verdict(0.05, 0.3, 10, 10, 0.25) == "unresolved"
    assert bench_pairs.verdict(-0.3, 0.3, 0, 10, 0.25) == "worse"
    for part in ("src/pkg/__pycache__", "tests/__pycache__",
                 ".git/__pycache__"):
        (tmp_path / part).mkdir(parents=True)
        (tmp_path / part / "m.pyc").write_bytes(b"")
    bench_pairs.drop_bytecode(str(tmp_path))
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("__pycache__")) == \
        [".git/__pycache__"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_chain_certifies_every_degree_one_row_of_the_trefoil_k_copy(
        tmp_path, capsys, k):
    # contact 1/k surgery on the tb = 1 trefoil: each good degree-1 row has
    # the constant term as its complete candidate list, with one witness.
    # For k >= 2 the pool length is not capped (_pool_length_cap is None),
    # so this certificate covers pool words of length <= 1 only; the same
    # search certifies the cancelling 2-copy, which is S^3 (test_chain_
    # certifies_the_cancelling_2_copy_only_at_pool_length_1).  Only k = 1,
    # of cap 1, is certified at full scope.  At k = 8 the branch and bound
    # runs after 41,472 products; priced at one row per face, all 321 of
    # them, it would wait for 112,752, past MAX_NODES
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
        assert certified(row), row["word"]
        assert row["candidates"][0]["count"] == "+-1"


def test_chain_prints_no_count_for_two_witness_faces(tmp_path, capsys):
    """The tb = -1 unknot with +1 surgery is S^1 x S^2.  The constant term
    of its row (r1) has two witness faces, and two planes of count +-1 sum
    to 0 or +-2, never +-1: ``chain`` prints no count and flags the sign
    as ambiguous."""
    path = write(tmp_path, "L1,R1 / surgery {0:+1}")
    code, out, err = run(capsys, ["chain", "--max-len", "2", "--epsilon",
                                  "1/100", "--input", path])
    assert code == 0, err
    [row] = [row for row in json.loads(out) if row["word"] == "(r1)"]
    [const] = row["candidates"]
    assert const["monomial"] == "1" and const["faces"] == [1, 2]
    assert const["count"] is None and const["sign_ambiguous"]
    assert not certified(row)


def certified(row):
    """Whether a good degree-1 ``chain`` row certifies that its generator is
    killed: its candidate list is complete (not truncated) and is the
    constant term alone, with exactly one witness face."""
    return "truncated" not in row and [
        (c["monomial"], len(c["faces"])) for c in row["candidates"]] == \
        [("1", 1)]


def run_text(argv, text):
    """(exit code, standard output) of the CLI on a front text given on
    standard input."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--input", "-"])
    return code, out.getvalue()


@pytest.mark.parametrize("text", [
    TREFOIL_PLUS, "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}"])
@pytest.mark.parametrize("argv", [
    ["invariants"], ["orbits", "--max-len", "2"], ["cz", "--max-len", "2"],
    ["homology", "--max-len", "2"], ["grading", "--max-len", "2"],
    ["chain", "--max-len", "2", "--epsilon", "1/100"]])
def test_a_commands_diagram_is_freed_when_it_returns(monkeypatch, text,
                                                      argv):
    """With the cycle collector off, every diagram a command resolves dies
    with its last reference when the command returns: nothing the command
    builds (words, letters, records, memo tables) refers back to it."""
    from reebchords import cli
    built = []

    def tracked(front):
        d = resolve(front)
        built.append(weakref.ref(d))
        return d

    monkeypatch.setattr(cli, "resolve", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _ = run_text(argv, text)
        assert code == 0
        assert built and all(ref() is None for ref in built)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("text", [
    TREFOIL_PLUS, "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}"])
@pytest.mark.parametrize("argv", [
    ["invariants"], ["chain", "--max-len", "2", "--epsilon", "1/100"]])
def test_a_command_builds_no_fraction_view(monkeypatch, text, argv):
    """``invariants`` and ``chain`` read the diagram's int tables only: the
    ``Fraction`` view ``components`` is never built."""
    from reebchords import cli
    built = []

    def kept(front):
        built.append(resolve(front))
        return built[-1]

    monkeypatch.setattr(cli, "resolve", kept)
    code, _ = run_text(argv, text)
    assert code == 0 and built
    assert not any("components" in vars(d) for d in built)


def chain_rows(text, max_len):
    """The good degree-1 rows of ``chain --epsilon 1/100`` on a front."""
    code, out = run_text(["chain", "--max-len", str(max_len), "--epsilon",
                          "1/100"], text)
    assert code == 0
    return [row for row in json.loads(out)
            if row["good"] and row["degree"] == 1]


def test_chain_decides_a_row_whose_root_lp_is_feasible():
    """Row (r7r8) of ``chain --max-len 2`` on a parity-mode front has a
    feasible root LP, and its search would run to MAX_NODES.  The branch
    and bound proves that no non-constant product passes, so the row is
    complete, with the constant term as its only candidate."""
    [row] = [row for row in chain_rows(FEASIBLE_LP_FRONT, 2)
             if row["word"] == "(r7r8)"]
    assert "truncated" not in row
    assert [c["monomial"] for c in row["candidates"]] == ["1"]


TREFOIL_MINUS = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:-1}"
T25_MINUS = "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}"
TREFOIL_MINUS_2_COPY = front_text(k_copy(parse_front(TREFOIL_MINUS), 2))


# Negative controls.  Legendrian (-1) surgery gives a Stein fillable
# manifold, whose contact homology is non-zero, so on a front whose
# coefficients are all -1 no generator may be certified as killed.
@pytest.mark.parametrize("text, max_len", [
    (TREFOIL_MINUS, 3),
    ("L1,R1 / surgery {0:-1}", 3),
    (HOPF_MINUS, 3),
    (T25_MINUS, 2),
    (T25_MINUS, 3),
    (TREFOIL_MINUS_2_COPY, 1),
    (TREFOIL_MINUS_2_COPY, 2),
], ids=["trefoil", "unknot", "hopf", "T(2,5)", "T(2,5)-len3", "2-copy",
        "2-copy-len2"])
def test_chain_certifies_no_row_of_a_minus_one_surgery(text, max_len):
    for row in chain_rows(text, max_len):
        assert not certified(row), row["word"]


@settings(max_examples=30, deadline=None)
@seed(3)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_chain_certifies_no_row_of_a_random_minus_one_surgery(front_seed):
    front = surgered_front(random.Random(front_seed))
    front = FrontCode(front.events, front.orientations,
                      {i: -1 for i in front.surgery})
    for row in chain_rows(front_text(front), 2):
        assert not certified(row), row["word"]


def trefoil_copy(surgery):
    """The tb = 1 trefoil's k-copy, k = len(surgery), with the coefficients
    ``surgery``."""
    front = k_copy(parse_front(TREFOIL_PLUS), len(surgery))
    return FrontCode(front.events, front.orientations, surgery)


@pytest.mark.parametrize("surgery, group, relations, killed", [
    ({0: +1, 1: -1}, "0", [[2, 1], [1, 0]], ["(r17)", "(r20)"]),
    ({0: -1, 1: +1}, "0", [[0, 1], [1, 2]], ["(r16)", "(r19)"]),
    ({0: +1, 1: +1}, "Z/3", [[2, 1], [1, 2]],
     ["(r16)", "(r17)", "(r19)", "(r20)"]),
], ids=["+-", "-+", "++"])
def test_chain_certifies_the_cancelling_2_copy_only_at_pool_length_1(
        surgery, group, relations, killed):
    """Contact +1 surgery on the trefoil and -1 surgery on its push-off
    cancel (Ding-Geiges): the 2-copy with one coefficient of each sign is
    (S^3, xi_std), whose contact homology is not zero.  Its pool length is
    not capped, so a ``--max-len 1`` certificate covers pool words of
    length <= 1 only, and such a certificate is found on two of its rows,
    as on all four of the {+1, +1} twin (contact 1/2 surgery).  At
    ``--max-len 2`` no row of either is certified."""
    front = trefoil_copy(surgery)
    code, out = run_text(["homology"], front_text(front))
    h1 = json.loads(out)
    assert (code, h1["group"], h1["relations"]) == (0, group, relations)
    assert _pool_length_cap(resolve(front), 0) is None
    assert [row["word"] for row in chain_rows(front_text(front), 1)
            if certified(row)] == killed
    assert not any(certified(row) for row in chain_rows(front_text(front), 2))


def test_chain_certifies_no_row_of_a_random_cancelling_2_copy():
    """Every component of a random front of at most 7 events and 2
    components doubled by ``k_copy``, with +1 on one copy and -1 on the
    other in random order: each pair cancels (Ding-Geiges), so the diagram
    is (S^3, xi_std), whose contact homology is not zero.  ``chain
    --max-len 2`` certifies no row of 40 distinct such fronts."""
    rng = random.Random(1)
    seen, rows = set(), 0
    while len(seen) < 40:
        front = surgered_front(rng)
        if len(front.events) > 7 or front.n_components > 2:
            continue
        copy = k_copy(front, 2)
        surgery = {}
        for c in range(front.n_components):
            signs = [1, -1]
            rng.shuffle(signs)
            surgery[2 * c], surgery[2 * c + 1] = signs
        text = front_text(FrontCode(copy.events, copy.orientations, surgery))
        if text in seen:
            continue
        seen.add(text)
        for row in chain_rows(text, 2):
            assert not certified(row), (text, row["word"])
            rows += 1
    assert rows > 100


@pytest.mark.parametrize("surgery, relations, killed, killed_at_2", [
    ({0: +1, 1: +1, 2: -1}, [[2, 1, 1], [1, 2, 1], [1, 1, 0]],
     ["(r38)", "(r39)", "(r44)", "(r45)"], ["(r45)"]),
    ({0: +1, 1: -1, 2: +1}, [[2, 1, 1], [1, 0, 1], [1, 1, 2]],
     ["(r37)", "(r39)", "(r43)", "(r45)"], ["(r24r25)"]),
    ({0: -1, 1: +1, 2: +1}, [[0, 1, 1], [1, 2, 1], [1, 1, 2]],
     ["(r37)", "(r38)", "(r43)", "(r44)"], ["(r37)"]),
], ids=["++-", "+-+", "-++"])
def test_chain_certifies_the_positive_twin_3_copy(surgery, relations,
                                                 killed, killed_at_2):
    """The positive twin of the cancelling 2-copy: on the trefoil's 3-copy
    with coefficients {+1, +1, -1} in any order, one +1 and the -1 cancel
    (Ding-Geiges), leaving the trefoil +1, whose contact homology is zero.
    H1 is Z/2 and the pool length is not capped.  ``--max-len 1``
    certifies all four good degree-1 rows, and ``--max-len 2`` one of its
    36 in each order: a bounded-scope result, consistent with zero."""
    front = trefoil_copy(surgery)
    code, out = run_text(["homology"], front_text(front))
    h1 = json.loads(out)
    assert (code, h1["group"], h1["relations"]) == (0, "Z/2", relations)
    assert _pool_length_cap(resolve(front), 0) is None
    rows = chain_rows(front_text(front), 1)
    assert [row["word"] for row in rows if certified(row)] == killed
    assert len(rows) == len(killed)
    rows = chain_rows(front_text(front), 2)
    assert [row["word"] for row in rows if certified(row)] == killed_at_2
    assert len(rows) == 36


FUZZ_TEXTS = [TREFOIL_PLUS, TREFOIL_MINUS, "L1,R1 / surgery {0:+1}",
              "L1,L2,R1,R1 / surgery {0:+1} / orientations {0:-}",
              "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
              "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}"] + \
    [front_text(front) for front in seeded_fronts()]
FUZZ_COMMANDS = [["parse"], ["invariants"], ["quiver"],
                 ["chain", "--max-len", "1", "--epsilon", "1/100"]] + [
    [command, "--max-len", "2"]
    for command in ("orbits", "chords", "cz", "homology", "grading")]


@settings(max_examples=150, deadline=None)
@seed(7)
@given(st.sampled_from(FUZZ_TEXTS), st.lists(
    st.tuples(st.integers(min_value=0),
              st.sampled_from("LRX0123456789,/{}:+- se")),
    min_size=2, max_size=2))
def test_mutated_fronts_exit_0_or_2_under_every_command(text, changes):
    # two characters changed: each command reads the mutant as a front or
    # rejects it as input; an escaped exception (exit 1) or an internal
    # fault (exit 3) fails
    chars = list(text)
    for at, char in changes:
        chars[at % len(chars)] = char
    mutant = "".join(chars)
    for argv in FUZZ_COMMANDS:
        code, _ = run_text(argv, mutant)
        assert code in (0, 2), (argv, mutant)


# strings with quotes, backslashes, control, non-ASCII and astral characters
JSON_STRINGS = st.one_of(st.text(), st.text(
    alphabet='"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\ufeff\U0001f600a'))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-2 ** 300, 2 ** 300), JSON_STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.tuples(inner, inner),
        st.dictionaries(st.one_of(JSON_STRINGS, st.integers()), inner,
                        max_size=5)),
    max_leaves=40)


def nested(depth, leaf):
    """leaf inside ``depth`` alternating one-element lists and dicts."""
    for k in range(depth):
        leaf = [leaf] if k % 2 else {k: leaf, "k": []}
    return leaf


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([[], {}, (), "", 0, -1, 2 ** 200, -(2 ** 200), True, False, None])
def test_json_text_is_json_dumps_with_indent_2(data):
    assert json_text(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize("depth", [499, 500])
@pytest.mark.parametrize("leaf", ["deep", [], {}, -7])
def test_json_text_writes_500_levels_of_nesting(depth, leaf):
    # built here, not as a hypothesis example: its repr would recurse
    data = nested(depth, leaf)
    assert json_text(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize("data", [
    0.5, F(1, 3), [1, 2.0], {"action": F(7, 2)}, nested(500, F(1, 2)),
    {1.5: 0}, {F(1, 2): 0}])
def test_json_text_refuses_floats_and_fractions(data):
    with pytest.raises(TypeError):
        json_text(data)
