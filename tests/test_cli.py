"""Tests for the file formats and the command-line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qciore
from qciore.cli import (
    FileFormatError,
    format_structure,
    infer_signature,
    main,
    parse_proof,
    parse_structure,
)
from qciore.matrix3 import DESIGNATED
from qciore.structures import eval_formula, make_structure
from qciore.syntax import Signature, parse_formula
from qciore.triples import make_triple

from helpers import remark_structure

REMARK = "tests/fixtures/remark.struct"

FULL_STRUCT = """
# a structure exercising every declaration
domain = {e1, e2}
pred P/1 { plus={(e1)} minus={} dot={(e2)} }
pred R/2 { plus={(e1,e1)} minus={(e1,e2),(e2,e1)} dot={(e2,e2)} }
fun f/1 { (e1)->e2, (e2)->e2 }
const c = e1
equality normal
"""

ODD_EQUALITY = """
domain = {e1, e2}
pred P/1 { plus={(e1),(e2)} minus={} dot={} }
equality { plus={(e1,e1),(e1,e2),(e2,e1)} minus={} dot={(e2,e2)} }
"""


# ---------------------------------------------------------------------------
# Structure files


def test_structure_round_trip_remark():
    with open(REMARK) as fh:
        a = parse_structure(fh.read())
    assert a == remark_structure()
    assert parse_structure(format_structure(a)) == a


def test_structure_round_trip_full():
    a = parse_structure(FULL_STRUCT)
    assert a.sig.has_equality
    assert a.funs["f"][("e1",)] == "e2"
    assert a.consts["c"] == "e1"
    text = format_structure(a)
    assert "equality normal" in text
    assert parse_structure(text) == a


def test_structure_round_trip_odd_equality():
    a = parse_structure(ODD_EQUALITY)
    text = format_structure(a)
    assert "equality {" in text
    assert parse_structure(text) == a


@pytest.mark.parametrize(
    "bad",
    [
        "pred P/1 { plus={} minus={} dot={} }",  # no domain
        "domain = {}\n",  # empty domain
        "domain = {a}\npred P/1 { plus={(a)} minus={} }",  # missing class
        "domain = {a}\npred P/1 { plus={(a)} minus={(a)} dot={} }",  # overlap
        "domain = {a}\npred P/1 { plus={(b)} minus={} dot={} }",  # unknown element
        "domain = {a}\nconst c = a\nconst c = a",  # duplicate declaration
        "domain = {a}\nfun f/1 { (a)->b }",  # value outside the domain
        "domain = {a}\nfun f/1 { }",  # partial table
        "domain = {a}\nnonsense = 3",
        "domain = {a,}",  # trailing comma
        "domain = {a b}",  # missing comma
        "domain = {a}\npred P/1 { plus={(a),} minus={} dot={} }",
        "domain = {a}\npred P/1 { plus={(a a)} minus={} dot={} }",
        "domain = {a}\npred P/1 { plus={(a} minus={} dot={} }",  # unclosed tuple
    ],
)
def test_structure_errors(bad):
    with pytest.raises(FileFormatError):
        parse_structure(bad)


PLUS_ONLY = "domain = {a}\npred P/1 { plus=%s minus={} dot={} }"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("domain = {a,}", "expected a name, found '}'"),
        ("domain = {a b}", "expected '}', found 'b'"),
        (PLUS_ONLY % "{(a),}", "expected '(', found '}'"),
        (PLUS_ONLY % "{(a a)}", "expected ')', found 'a'"),
        (PLUS_ONLY % "{(a}", "expected ')', found '}'"),
    ],
)
def test_list_error_messages(bad, message):
    with pytest.raises(FileFormatError) as err:
        parse_structure(bad)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Proof files


def test_proof_file_parses():
    with open("tests/fixtures/imp_refl.proof") as fh:
        p = parse_proof(fh.read())
    assert p.name == "imp-refl"
    assert len(p.steps) == 5


@pytest.mark.parametrize(
    "bad",
    [
        "1. A -> A ; ax Ax1",  # no name
        "name: x\n",  # no steps
        "name: x\n2. A ; hyp 1",  # numbering must start at 1
        "name: x\n1. A ; hyp 1\n3. A ; hyp 1",  # gap in numbering
        "name: x\n1. A ; hyp 1\nname: y",  # header after steps
        "name: b@d name\n1. A ; hyp 1",
        "name: x\n1. P(a) & P(a, a) ; hyp 1",  # arity clash
        "name: x\n1. P(f(a)) -> P(f(a, a)) ; hyp 1",  # function arity clash
        "name: x\n1. A ; because",  # unknown justification
    ],
)
def test_proof_errors(bad):
    with pytest.raises(FileFormatError):
        parse_proof(bad)


# ---------------------------------------------------------------------------
# Signature inference


def test_infer_signature():
    fs = [
        parse_formula("P(x) -> R(x, f(y))"),
        parse_formula("exists x. x = g(x, c)"),
    ]
    sig = infer_signature(fs)
    assert sig.predicates == {"P": 1, "R": 2}
    assert sig.functions == {"f": 1, "g": 2}
    assert sig.constants == set()  # bare identifiers stay variables
    assert sig.has_equality


def test_infer_signature_rejects_arity_clash():
    with pytest.raises(FileFormatError):
        infer_signature([parse_formula("P(x) & P(x, y)")])


# ---------------------------------------------------------------------------
# Commands


def test_eval_command(capsys):
    code = main(
        ["eval", "--structure", REMARK, "--formula", "P(x)", "--assign", "x=b"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "1/2" in out and "designated" in out


def test_eval_sentence_verdict(capsys):
    code = main(
        ["eval", "--structure", REMARK, "--formula", "exists x. ~P(x)", "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data == {"value": "1", "designated": True, "verdict": "POS"}


def test_eval_valid_flag(capsys):
    code = main(
        [
            "eval",
            "--structure",
            REMARK,
            "--formula",
            "(exists x. ~P(x)) -> ~(forall x. P(x))",
            "--valid",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1 and "REFUTED" in out and "value 0" in out


def test_eval_bad_assignment(capsys):
    code = main(
        ["eval", "--structure", REMARK, "--formula", "P(x)", "--assign", "x=zz"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_eval_missing_file(capsys):
    code = main(["eval", "--structure", "/nonexistent.struct", "--formula", "P(x)"])
    assert code == 2


def test_check_proof_command(capsys):
    code = main(
        [
            "check-proof",
            "tests/fixtures/imp_refl.proof",
            "tests/fixtures/imp_trans.proof",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("ACCEPTED") == 2


def test_check_proof_rejects_mutant(capsys):
    code = main(["check-proof", "tests/fixtures/generalization_mut_mp.proof"])
    out = capsys.readouterr().out
    assert code == 1 and "REJECTED" in out and "step 3" in out


def test_check_proof_shares_lemmas(capsys):
    # the later proof cites lemmas proved by the earlier ones
    code = main(
        [
            "check-proof",
            "tests/fixtures/imp_trans.proof",
            "tests/fixtures/sneg_exists_all.proof",
            "tests/fixtures/exists_contra_spreads.proof",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("ACCEPTED") == 3


def test_check_proof_reports_a_lemma_name_clash_and_goes_on(tmp_path, capsys):
    first = tmp_path / "first.proof"
    first.write_text("name: dup\nschema-atom: A B\n1. A -> (B -> A) ; ax Ax1\n")
    second = tmp_path / "second.proof"
    second.write_text("name: dup\nschema-atom: A B\n1. (A & B) -> A ; ax Ax4\n")
    code = main(
        ["check-proof", str(first), str(second), "tests/fixtures/imp_refl.proof"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 3
    assert lines[0].startswith("ACCEPTED dup")
    assert lines[1] == (
        "REJECTED dup at step 0: lemma 'dup' already stored with a different formula"
    )
    assert lines[2].startswith("ACCEPTED imp-refl")


def test_check_proof_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    bad = tmp_path / "bad.proof"
    bad.write_text("name: x\n")
    missing = tmp_path / "missing.proof"
    code = main(
        [
            "check-proof",
            "tests/fixtures/imp_refl.proof",
            str(bad),
            str(missing),
            "tests/fixtures/imp_trans.proof",
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 4
    assert lines[0].startswith("ACCEPTED imp-refl")
    assert lines[1] == "ERROR %s: proof x has no steps" % bad
    assert lines[2].startswith("ERROR %s: " % missing)
    assert lines[3].startswith("ACCEPTED imp-trans")


def test_check_proof_unreadable_file_adds_no_lemmas(tmp_path, capsys):
    # the file proves nothing: it fails to parse after a valid taut header
    bad = tmp_path / "bad.proof"
    bad.write_text("name: x\ntaut t: A -> A\n")
    cites = tmp_path / "cites.proof"
    cites.write_text("name: y\nschema-atom: A\n1. A -> A ; lemma t\n")
    code = main(["check-proof", str(bad), str(cites)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert lines[1] == "REJECTED y at step 1: no lemma named 't' in the store"


@pytest.mark.parametrize(
    "step",
    [
        # parses, and fails while it is checked
        "%sA -> (B -> %sA) ; ax Ax1" % ("~" * 450, "~" * 450),
        # fails while it is parsed
        "%sA ; ax Ax1" % ("~" * 3000),
    ],
    ids=["checking", "parsing"],
)
def test_check_proof_reports_a_formula_nested_too_deeply_and_goes_on(step, tmp_path, capsys):
    deep = tmp_path / "deep.proof"
    deep.write_text("name: deep\nschema-atom: A B\n1. %s\n" % step)
    code = main(["check-proof", str(deep), "tests/fixtures/imp_refl.proof"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 2
    assert lines[0].startswith("ERROR %s: formula nested too deeply" % deep)
    assert lines[1].startswith("ACCEPTED imp-refl")


def test_search_reports_a_formula_nested_too_deeply(capsys):
    code = main(["search", "--refute", "~" * 3000 + "P(c)"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: formula nested too deeply")
    assert captured.out == ""


def test_search_command_finds_and_roundtrips(capsys):
    code = main(
        [
            "search",
            "--refute",
            "(exists x. ~P(x)) -> ~(forall x. P(x))",
            "--max",
            "3",
            "--json",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["found"] and data["size"] == 2
    reloaded = parse_structure(data["structure"])
    phi = parse_formula("(exists x. ~P(x)) -> ~(forall x. P(x))", reloaded.sig)
    values = {
        eval_formula(phi, reloaded, s)
        for s in [reloaded.default_assignment()]
    }
    assert values == {0}


def test_search_json_reports_structures_evaluated(capsys):
    code = main(
        [
            "search", "--refute", "Q(c)", "--gamma", "P(c)", "--gamma", "~P(c)",
            "--gamma", "@P(c)", "--max", "2", "--json",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["exhausted"]
    # bare identifiers are variables: the premises mention P only, the target Q
    assert data["structures_checked"] == 9 + 81
    assert data["structures_evaluated"] == 3 + 9


def test_search_command_exhausts(capsys):
    code = main(["search", "--refute", "(forall x. P(x)) -> P(y)", "--max", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "no countermodel" in out


def test_search_command_respects_limits(capsys):
    code = main(
        [
            "search",
            "--refute",
            "(forall x. P(x)) -> P(y)",
            "--max",
            "3",
            "--max-structures",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 3 and "structure budget" in out


@pytest.mark.parametrize("flag", ["--max-structures", "--time-budget"])
def test_search_command_rejects_a_negative_budget(flag, capsys):
    # no budget below 0 can be met: an error, not "stopped after 0 structures"
    code = main(["search", "--refute", "P(x)", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error:") and "negative" in captured.err


def test_search_progress_lines(capsys):
    main(
        [
            "search",
            "--refute",
            "(forall x. P(x)) -> P(y)",
            "--max",
            "2",
            "--progress",
        ]
    )
    err = capsys.readouterr().err
    lines = [json.loads(l) for l in err.splitlines() if l.strip()]
    assert not lines  # fewer structures than the reporting stride


def test_twist_verify_command(capsys):
    code = main(["twist-verify", "--sizes", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "size 2: 9 triples" in out
    assert "lifted quantifiers" in out


def test_twist_verify_labels_each_size_by_its_own_problems(capsys, monkeypatch):
    from qciore import cli
    from qciore.twist import twist_triple_op

    real = cli.ddagger

    def broken_on_one_element(p):
        z = real(p)
        return twist_triple_op("~", z) if len(p.alg.base) == 1 else z

    monkeypatch.setattr(cli, "ddagger", broken_on_one_element)
    code = main(["twist-verify", "--sizes", "1,2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "size 1: 3 triples, 3 pairs, connectives BROKEN" in out
    assert "size 2: 9 triples, 9 pairs, connectives ok" in out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails and all(line.startswith("FAIL size 1:") for line in fails)


def test_twist_verify_checks_the_quantifiers_against_eval_formula(capsys, monkeypatch):
    # the fibre step handed the other variable's place: both forms of
    # lifted_quantifier share the fault and still agree with each other,
    # so only the pointwise oracle can report it
    from qciore import triples

    fibre = triples._fibre

    def swapped(n, k, pos, projected):
        return fibre(n, k, k - 1 - pos, projected)

    monkeypatch.setattr(triples, "_fibre", swapped)
    code = main(["twist-verify", "--sizes", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lifted quantifiers over a 2-element domain: BROKEN" in out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails and all("misses eval_formula" in line for line in fails)


def test_twist_verify_rejects_infeasible_sizes(capsys):
    code = main(["twist-verify", "--sizes", "1,99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not feasible" in err


def test_twist_verify_caps_the_size_at_6(capsys):
    code = main(["twist-verify", "--sizes", "1,7"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "not feasible" in err
    assert out == ""  # refused before any size was checked


def test_mt_commands(tmp_path, capsys):
    big = tmp_path / "big.struct"
    small = tmp_path / "small.struct"
    big.write_text(format_structure(remark_structure()))
    small.write_text("domain = {a}\npred P/1 { plus={(a)} minus={} dot={} }\n")

    assert main(["mt", "sub", str(small), str(big)]) == 0
    capsys.readouterr()

    code = main(["mt", "tarski", str(small), str(big), "--depth", "1"])
    out = capsys.readouterr().out
    assert code == 1 and "TC1" in out

    assert main(["mt", "elementary", str(small), str(big), "--depth", "1"]) == 0
    capsys.readouterr()
    code = main(["mt", "elementary", str(small), str(big), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1 and "values differ" in out

    code = main(["mt", "equiv", str(small), str(big), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1 and "separated by" in out


@pytest.mark.parametrize(
    "command,depth", [("elementary", "-1"), ("equiv", "-2"), ("tarski", "-1")]
)
def test_mt_rejects_negative_depth(command, depth, capsys):
    code = main(["mt", command, REMARK, REMARK, "--depth", depth])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and "depth" in err
    assert out == ""  # no verdict over an empty range of depths


def test_mt_sub_rejects_non_substructure(tmp_path, capsys):
    a = tmp_path / "a.struct"
    b = tmp_path / "b.struct"
    a.write_text("domain = {a}\npred P/1 { plus={} minus={} dot={(a)} }\n")
    b.write_text(format_structure(remark_structure()))
    code = main(["mt", "sub", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1 and "not a substructure" in out


# ---------------------------------------------------------------------------
# Module entry points


@pytest.mark.parametrize("module", ["qciore", "qciore.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(qciore.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, "check-proof", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    ok = run("tests/fixtures/imp_refl.proof")
    assert ok.returncode == 0 and ok.stdout.startswith("ACCEPTED imp-refl"), ok
    bad = run("tests/fixtures/generalization_mut_mp.proof")
    assert bad.returncode == 1 and "REJECTED" in bad.stdout, bad
