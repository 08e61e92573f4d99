"""Tests for the file formats and the command-line entry points."""

import itertools
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
from qciore.twist import (
    PowersetAlgebra,
    TwistPair,
    TwistTriple,
    all_twist_triples,
    dagger,
    pair_op,
    twist_triple_op,
)

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
        "domain = {a}\npred P/x { plus={} minus={} dot={} }",  # arity not a number
        "domain = {a}\nfun f/-1 { }",  # negative arity
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
        ("domain = {a}\npred P/x { plus={} minus={} dot={} }", "expected an arity, found 'x'"),
        ("domain = {a}\nfun f/-1 { }", "expected an arity, found '-'"),
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
    with pytest.raises(FileFormatError, match="predicate P used with 1 and 2 arguments"):
        infer_signature([parse_formula("P(x) & P(x, y)")])
    # across formulas too
    with pytest.raises(FileFormatError, match="function f used with 1 and 2 arguments"):
        infer_signature([parse_formula("P(f(x))"), parse_formula("f(x, y) = x")])


def test_infer_signature_shares_no_cache():
    # a Signature cannot be edited, so no caller changes what another reads
    import dataclasses

    from qciore import syntax

    f = parse_formula("P(x) & ~P(y)")
    for formulas in ([f], [f, f.left]):
        for sig in (infer_signature(formulas), syntax.signature_of(f)):
            assert sig == Signature(predicates={"P": 1}) and hash(sig) == hash(Signature({"P": 1}))
            with pytest.raises(TypeError):
                sig.predicates["R"] = 2
            with pytest.raises(TypeError):
                sig.functions["f"] = 1
            with pytest.raises(AttributeError):
                sig.constants.add("c")
            with pytest.raises(dataclasses.FrozenInstanceError):
                sig.has_equality = True
        assert syntax.signature_of(f) == Signature(predicates={"P": 1})
    assert infer_signature([]) == Signature()


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


_FOUND = ["--refute", "(exists x. ~P(x)) -> ~(forall x. P(x))", "--max", "3"]
_LIMIT = ["--refute", "(forall x. P(x)) -> P(y)", "--max", "3", "--max-structures", "4"]
_EXHAUSTED = ["--refute", "(forall x. P(x)) -> P(y)", "--max", "2"]
_FOUND_STRUCT = "domain = {e1, e2}\npred P/1 { plus={(e1)} minus={} dot={(e2)} }\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (
            _FOUND,
            1,
            "countermodel of size 2 (checked 6 structures):\n"
            + _FOUND_STRUCT
            + "assignment: {; default e1}\nvalue of target: 0\n",
        ),
        (
            _FOUND + ["--json"],
            1,
            '{"found": true, "size": 2, "structures_checked": 6, '
            '"structures_evaluated": 6, "structure": '
            + json.dumps(_FOUND_STRUCT)
            + ', "assignment": {"default": "e1"}, "value": "0"}\n',
        ),
        (
            _LIMIT,
            3,
            "stopped by structure budget after 4 structures; nothing found so far\n",
        ),
        (
            _LIMIT + ["--json"],
            3,
            '{"found": false, "limit_hit": "structure budget", '
            '"structures_checked": 4, "structures_evaluated": 4}\n',
        ),
        (_EXHAUSTED, 0, "no countermodel up to size 2 (checked 12 structures)\n"),
        (
            _EXHAUSTED + ["--json"],
            0,
            '{"found": false, "exhausted": true, "max_domain_size": 2, '
            '"structures_checked": 12, "structures_evaluated": 12}\n',
        ),
    ],
    ids=["found", "found-json", "limit", "limit-json", "exhausted", "exhausted-json"],
)
def test_search_prints_each_outcome_exactly(argv, code, out, capsys):
    assert main(["search"] + argv) == code
    assert capsys.readouterr().out == out


def test_main_builds_its_parser_once_and_carries_no_arguments_over(capsys):
    # one parser per process; each call parses into a fresh namespace, so
    # the first call's premise and --json do not reach the second
    from qciore import cli

    cli.build_parser.cache_clear()
    assert main(["search", "--refute", "P(c)", "--gamma", "P(c)", "--max", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["exhausted"]
    assert main(["search", "--refute", "P(c)", "--max", "1"]) == 1
    assert capsys.readouterr().out.startswith("countermodel of size 1")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


def test_twist_verify_runs_leave_no_decodings_behind(capsys):
    # the quantifier oracle decodes its triples over one space's index; a
    # fresh index per run would add its decodings to triples' cache each run
    from qciore import triples

    triples._decode.cache_clear()
    main(["twist-verify", "--sizes", "1"])
    held = triples._decode.cache_info().currsize
    main(["twist-verify", "--sizes", "1"])
    assert 0 < held == triples._decode.cache_info().currsize


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


def test_twist_verify_finds_a_pair_the_triple_map_misses(capsys, monkeypatch):
    # at size 1 dagger sends the all-dubious triple to the all-true one's
    # pair, so ({1}, {1}) is nobody's image.  The pairs are enumerated from
    # their definition, so the fault shows even where twist's own dagger
    # shares it.
    from qciore import cli, twist

    real, one = cli.dagger, twist.PowersetAlgebra(frozenset({1}))

    def misses_one(z):
        p = real(z)
        return tuple.__new__(type(p), (one, 1, 0)) if z[:] == (one, 0, 0, 1) else p

    monkeypatch.setattr(cli, "dagger", misses_one)
    monkeypatch.setattr(twist, "dagger", misses_one)
    code = main(["twist-verify", "--sizes", "1,2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "size 1: 3 triples, 3 pairs, connectives BROKEN" in out
    assert "size 2: 9 triples, 9 pairs, connectives ok" in out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert "FAIL size 1: the triple map is not onto the pairs" in fails
    assert all(line.startswith("FAIL size 1:") for line in fails)


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


def _quantifier_fails(what, z):
    return ["FAIL %s over %s %s at %s" % (kind, var, what, z)
            for kind in ("forall", "exists") for var in ("x", "y")]


_FAULTY_LANES = pytest.mark.parametrize(
    "lanes", [[0], [40], [80], [40, 80]], ids=["first", "middle", "last", "two"]
)


@_FAULTY_LANES
def test_twist_verify_locates_an_oracle_fault(capsys, monkeypatch, lanes):
    # eval_formula wrong in the structures of the given triples alone: every
    # quantified formula misses there, the first is named, and the two
    # lifted forms still agree
    from qciore import cli
    from qciore.matrix3 import ONE, ZERO

    zs = all_twist_triples(cli._TWIST_SPACE.algebra)
    bad = {(zs[i].a, zs[i].b) for i in lanes}
    real = cli.eval_formula

    def wrong_in_lanes(f, A, s):
        v = real(f, A, s)
        R = A.preds["R"]
        return {ONE: ZERO}.get(v, ONE) if (R.plus, R.minus) in bad else v

    monkeypatch.setattr(cli, "eval_formula", wrong_in_lanes)
    code = main(["twist-verify", "--sizes", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lifted quantifiers over a 2-element domain: BROKEN" in out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == (
        _quantifier_fails("misses eval_formula", zs[lanes[0]])
    )


@_FAULTY_LANES
def test_twist_verify_locates_a_pair_form_fault(capsys, monkeypatch, lanes):
    # the pair form wrong in the given lanes alone: the triple form still
    # matches eval_formula, so only the divergence names the first of them
    from qciore import cli

    real = cli.lifted_quantifier

    def wrong_pairs_in_lanes(kind, representation, x, space, z):
        r = real(kind, representation, x, space, z)
        if representation == "P":
            r = tuple.__new__(type(r), (r[0], r[1] ^ sum(1 << 8 * i for i in lanes), r[2]))
        return r

    monkeypatch.setattr(cli, "lifted_quantifier", wrong_pairs_in_lanes)
    code = main(["twist-verify", "--sizes", "1"])
    out = capsys.readouterr().out
    assert code == 1
    bad = all_twist_triples(cli._TWIST_SPACE.algebra)[lanes[0]]
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == (
        _quantifier_fails("diverges", bad)
    )


def test_twist_verify_lifts_each_quantifier_once_for_all_triples(capsys, monkeypatch):
    # one triple-form and one pair-form call per (kind, variable), each on
    # the 81 triples packed side by side, not one call per triple
    from qciore import cli

    calls = []
    real = cli.lifted_quantifier

    def counted(kind, representation, x, space, z):
        calls.append((kind, representation, x))
        return real(kind, representation, x, space, z)

    monkeypatch.setattr(cli, "lifted_quantifier", counted)
    assert main(["twist-verify", "--sizes", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 8


def test_twist_verify_rejects_infeasible_sizes(capsys):
    code = main(["twist-verify", "--sizes", "1,99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not feasible" in err


def test_twist_verify_caps_the_size_at_7(capsys):
    code = main(["twist-verify", "--sizes", "1,8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "not feasible" in err and "GB" in err
    assert out == ""  # refused before any size was checked


def test_twist_verify_checks_size_7(capsys):
    code = main(["twist-verify", "--sizes", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "size 7: 2187 triples, 2187 pairs, connectives ok" in out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_twist_verify_packs_every_pair_once_in_product_order(k):
    from qciore.cli import _packed_pairs

    alg = PowersetAlgebra(frozenset(range(1, k + 1)))
    duals = [(z, dagger(z)) for z in all_twist_triples(alg)]
    lanes = len(duals) ** 2
    packed = _packed_pairs(duals, k)
    for j, (left, right) in enumerate(packed):
        assert left[0] is right[0] is packed[0][0][0]
        assert left[0].index.full == int.from_bytes(bytes(((1 << k) - 1,)) * lanes, "little")
        assert all(m.bit_length() <= 8 * lanes for m in left[1:] + right[1:])

        def lane(x, i):
            return tuple.__new__(type(x), (alg, *(m >> 8 * i & 0xFF for m in x[1:])))

        got = [(lane(left, i), lane(right, i)) for i in range(lanes)]
        assert got == list(itertools.product([d[j] for d in duals], repeat=2))


def _broken_pair_implication(op, z, w=None):
    # -> whose second component misses where both operands are two-sided
    r = pair_op(op, z, w)
    if op != "->":
        return r
    A, first, _ = r
    return tuple.__new__(TwistPair, (A, first, A.index.full & ~first))


def _broken_triple_conjunction(op, z, w=None):
    # & whose plus misses a true conjunct beside a dubious one
    r = twist_triple_op(op, z, w)
    if op != "&":
        return r
    return tuple.__new__(TwistTriple, (r[0], z[1] & w[1], *r[2:]))


def _broken_triple_consistency(op, z, w=None):
    # @ whose plus misses the false points
    r = twist_triple_op(op, z, w)
    if op != "@":
        return r
    return tuple.__new__(TwistTriple, (r[0], z[1], *r[2:]))


@pytest.mark.parametrize(
    "name, broken, op, arity",
    [
        ("pair_op", _broken_pair_implication, "->", 2),
        ("twist_triple_op", _broken_triple_conjunction, "&", 2),
        ("twist_triple_op", _broken_triple_consistency, "@", 1),
    ],
)
def test_twist_verify_reports_the_first_failing_pair(capsys, monkeypatch, name, broken, op, arity):
    from qciore import cli

    monkeypatch.setattr(cli, name, broken)
    code = main(["twist-verify", "--sizes", "1,2,3"])
    out = capsys.readouterr().out
    assert code == 1
    expected = []
    for k in (1, 2, 3):
        # the per-pair reference loop, in itertools.product order
        triples = all_twist_triples(PowersetAlgebra(frozenset(range(1, k + 1))))
        bad = [
            zw for zw in itertools.product(triples, repeat=arity)
            if dagger(cli.twist_triple_op(op, *zw)) != cli.pair_op(op, *map(dagger, zw))
        ]
        assert bad
        at = ", ".join("%s=%s" % pair for pair in zip("zw", bad[0]))
        expected.append("FAIL size %d: %s not preserved at %s" % (k, op, at))
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == expected


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
