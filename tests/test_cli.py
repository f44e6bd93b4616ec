import os
import subprocess
import sys
from pathlib import Path

import pytest

from mgumt.cli import main
from mgumt.fixtures import SESSION_SCRIPT, TABLE_ONE, TEACHING_GOLD
from mgumt.grammar import load_lexicon


@pytest.fixture()
def gold_path(tmp_path):
    path = tmp_path / "gold.mg"
    path.write_text(TABLE_ONE, encoding="utf-8")
    return str(path)


@pytest.fixture()
def teach_paths(tmp_path):
    gold = tmp_path / "teach.mg"
    gold.write_text(TEACHING_GOLD, encoding="utf-8")
    script = tmp_path / "session.txt"
    script.write_text(SESSION_SCRIPT, encoding="utf-8")
    return str(gold), str(script)


def test_parse_trace(gold_path, capsys):
    assert main(["parse", "--lexicon", gold_path,
                 "--input", "the mouse eats cheese"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 21
    assert lines[-1].endswith("accept")


def test_parse_reject_exit_code(gold_path, capsys):
    assert main(["parse", "--lexicon", gold_path,
                 "--input", "mouse the eats cheese"]) == 1
    assert "reject" in capsys.readouterr().out


@pytest.mark.parametrize("text,sentence", [
    (TABLE_ONE, "mouse the eats cheese"),
    ("mouse\t::\tn\tmouse\n", "mouse"),
], ids=["misordered", "empty-language"])
def test_parse_rejection_prints_one_line(text, sentence, tmp_path, capsys):
    # a rejected parse has no trace to print, not even a blank line
    path = tmp_path / "lex.mg"
    path.write_text(text, encoding="utf-8")
    assert main(["parse", "--lexicon", str(path), "--input", sentence]) == 1
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("reject\t")


def test_compile_without_start_category(tmp_path, capsys):
    # a lexicon that derives no c compiles to no rules, and prints none
    path = tmp_path / "lex.mg"
    path.write_text("mouse\t::\tn\tmouse\n", encoding="utf-8")
    assert main(["compile", "--lexicon", str(path)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command,row", [
    ("parse", "reject\tposition 4\texpected: end of input"),
    ("understand", "reject\trejected at token 4; expected one of: end of input"),
])
def test_leftover_input_expects_end(command, row, gold_path, capsys):
    # the deepest failure is a complete parse with a token left over
    assert main([command, "--lexicon", gold_path,
                 "--input", "the mouse eats cheese extra"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == row


def test_understand_final_row(gold_path, capsys):
    assert main(["understand", "--lexicon", gold_path,
                 "--input", "the mouse eats cheese"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert "eat(cheese)(mouse)" in rows[-2]
    assert "understand" in rows[-2]
    assert rows[-1] == "meaning\teat(cheese)(mouse)"


def test_produce(gold_path, capsys):
    assert main(["produce", "--lexicon", gold_path,
                 "--meaning", "eat(cheese)(mouse)"]) == 0
    assert capsys.readouterr().out.strip() == "the mouse eats cheese"


def test_produce_unrealizable(gold_path, capsys):
    assert main(["produce", "--lexicon", gold_path,
                 "--meaning", "sleep(mouse)"]) == 1


def test_produce_names_the_missing_constant(gold_path, capsys):
    assert main(["produce", "--lexicon", gold_path,
                 "--meaning", "eat(cheese)(rats)"]) == 1
    assert capsys.readouterr().out == (
        "unrealizable\tno derivation yields eat(cheese)(rats): "
        "no entry carries rats\n")


RECURSIVE_OLD = TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def mgumt_in_subprocess(*args: str, stdin: str | None = None,
                        timeout: float = 10):
    """`mgumt` at the default budget, in its own process so that a search
    that does not end fails the test instead of hanging it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mgumt.cli", *args], input=stdin,
        capture_output=True, text=True, timeout=timeout, env=env)


def test_produce_recursive_modifier(tmp_path):
    # the search only builds what fits within the meaning's constants, so
    # a recursive `old` no longer keeps it going until the budget runs out
    path = tmp_path / "lex.mg"
    path.write_text(RECURSIVE_OLD, encoding="utf-8")
    done = mgumt_in_subprocess("produce", "--lexicon", str(path),
                               "--meaning", "eat(cheese)(old(mouse))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "the old mouse eats cheese"
    done = mgumt_in_subprocess("produce", "--lexicon", str(path), "--meaning",
                               "eat(old(old(cheese)))(old(mouse))")
    assert done.returncode == 1, done.stderr
    (line,) = done.stdout.strip().splitlines()
    assert line.startswith("unrealizable\t")
    assert "(budget exhausted)" not in line


def test_derive_target_searches_each_meaning(tmp_path):
    # the parser names the target's meanings and each search is bounded by
    # one of them, so a recursive `old` does not keep the closure going
    old = tmp_path / "old.mg"
    old.write_text(RECURSIVE_OLD, encoding="utf-8")
    done = mgumt_in_subprocess("derive", "--lexicon", str(old),
                               "--target", "the old mouse eats cheese")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# ⟨the old mouse eats cheese, :c, eat(cheese)(old(mouse))⟩"
    assert "(1) merge-1" in lines
    homophones = tmp_path / "homophones.mg"
    homophones.write_text(HOMOPHONES, encoding="utf-8")
    done = mgumt_in_subprocess("derive", "--lexicon", str(homophones),
                               "--target", "the old mouse eats cheese")
    assert done.returncode == 0, done.stderr
    readings = {line for line in done.stdout.splitlines()
                if line.startswith("# ⟨")}
    assert readings == {
        "# ⟨the old mouse eats cheese, :c, eat(cheese)(old(mouse))⟩",
        "# ⟨the old mouse eats cheese, :c, eat(cheese)(aged(mouse))⟩"}
    done = mgumt_in_subprocess("derive", "--lexicon", str(old),
                               "--target", "the mouse cheese eats")
    assert done.returncode == 1, done.stderr
    assert done.stdout.strip() == "no complete derivation found"


def test_default_budget_derive_ends(tmp_path):
    # the closure merges a tree only with trees whose leading feature
    # matches, so a recursive `old` runs out of budget in seconds
    path = tmp_path / "old.mg"
    path.write_text(RECURSIVE_OLD, encoding="utf-8")
    done = mgumt_in_subprocess("derive", "--lexicon", str(path), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == (
        "# note: derivation budget exhausted, results may be partial")


OMEGA = "w\t::\t=b c\t\\x.x(x)\nv\t::\tb\t\\y.y(y)\n"


@pytest.mark.parametrize("command", [
    ["produce", "--meaning", "\\z.z(z)"], ["derive"]], ids=["produce", "derive"])
def test_closure_stops_on_a_meaning_without_normal_form(command, tmp_path):
    # merging w with v gives (λx.x(x))(λy.y(y)), which reduces to itself:
    # the closure stops after as many β-steps as beta_reduce takes
    path = tmp_path / "omega.mg"
    path.write_text(OMEGA, encoding="utf-8")
    done = mgumt_in_subprocess(command[0], "--lexicon", str(path),
                               *command[1:], timeout=30)
    assert done.returncode == 1, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_derive_budget_note_without_trees(gold_path, capsys):
    # a search that found nothing and ran out of budget says so
    assert main(["derive", "--lexicon", gold_path, "--budget", "5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "no complete derivation found",
        "# note: derivation budget exhausted, results may be partial"]


@pytest.mark.parametrize("depth,steps", [(6, 103), (80, 1213)])
def test_derive_target_reads_deep_embeddings(depth, steps, tmp_path):
    # the derivation is read off the parse: no budget to outgrow (depth 6
    # needs 103 steps, the closure's default budget is 90), and no
    # recursion over the tree
    path = tmp_path / "lex.mg"
    path.write_text(EMBEDDING, encoding="utf-8")
    sentence = " ".join(["the rat eats that"] * depth + ["the mouse eats cheese"])
    done = mgumt_in_subprocess("derive", "--lexicon", str(path),
                               "--target", sentence)
    assert done.returncode == 0, done.stderr
    assert "error:" not in done.stderr
    numbered = [line for line in done.stdout.splitlines()
                if line.startswith("(")]
    assert numbered[-1].startswith(f"({steps}) ") and len(numbered) == steps


def test_compile_rule_count(gold_path, capsys):
    assert main(["compile", "--lexicon", gold_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16


def test_derive_prints_inference_lines(gold_path, capsys):
    assert main(["derive", "--lexicon", gold_path,
                 "--target", "the mouse eats cheese"]) == 0
    out = capsys.readouterr().out
    assert "(1) merge-1" in out
    assert "(13) merge-1" in out
    assert "λ-app" in out


def test_learn_writes_snapshots(teach_paths, tmp_path, capsys):
    gold, script = teach_paths
    outdir = tmp_path / "snaps"
    assert main(["learn", "--gold", gold, "--script", script,
                 "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "verdict\treject-ungrammatical" in out
    final = (outdir / "final.mg").read_text(encoding="utf-8")
    assert len(load_lexicon(final)) == 11
    # every snapshot file is re-readable
    for f in sorted(outdir.glob("snapshot_*.mg")):
        load_lexicon(f.read_text(encoding="utf-8"))


def test_usage_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.mg")
    assert main(["compile", "--lexicon", missing]) == 2


def test_malformed_lexicon_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("not a lexicon line\n", encoding="utf-8")
    assert main(["compile", "--lexicon", str(bad)]) == 2


def test_directory_as_lexicon_exit_code(tmp_path, capsys):
    # a path the OS cannot read as a file is a usage error, not a crash
    assert main(["compile", "--lexicon", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_repl_survives_saving_to_a_directory(monkeypatch, capsys, tmp_path):
    lines = iter([f"save {tmp_path}",
                  "teach the mouse eats cheese | eat(cheese)(mouse)", "quit"])
    monkeypatch.setattr("builtins.input", lambda *_: next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("error: ")
    assert out[2:] == ["ok, lexicon has 1 entries"]


def test_repl_lexicon_of_an_empty_learner(monkeypatch, capsys):
    lines = iter(["lexicon", "quit"])
    monkeypatch.setattr("builtins.input", lambda *_: next(lines))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["(empty)"]


def test_learn_malformed_script_exit_code(teach_paths, tmp_path, capsys):
    gold, _ = teach_paths
    script = tmp_path / "bad.txt"
    script.write_text("teach\tonly-two-fields\n", encoding="utf-8")
    assert main(["learn", "--gold", gold, "--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 1: ")


EMBEDDING = TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\nrat\t::\tn\trat\n"
HOMOPHONES = (TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
              + "old\t::\t=n n\t\\x.aged(x)\n")
CONSTANT_EAT = TABLE_ONE.replace("\\x.\\y.eat(x)(y)", "eat")


def test_parse_deep_embedding(tmp_path, capsys):
    # 60 embedded clauses, 244 tokens: the parser keeps its own stack
    path = tmp_path / "lex.mg"
    path.write_text(EMBEDDING, encoding="utf-8")
    sentence = " ".join(["the rat eats that"] * 60 + ["the mouse eats cheese"])
    assert main(["parse", "--lexicon", str(path), "--input", sentence]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith("accept")
    assert main(["understand", "--lexicon", str(path),
                 "--input", sentence]) == 0
    meaning = "eat(that(" * 60 + "eat(cheese)(mouse)" + "))(rat)" * 60
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[-1] == f"meaning\t{meaning}"


@pytest.mark.parametrize("lexicon,command", [
    # derive --target parses for every reading: 1,024 of them outrun the
    # parser's steps
    (HOMOPHONES, ["derive", "--target", "the " + "old " * 10 + "mouse eats cheese"]),
], ids=["parser-budget"])
def test_limit_exit_code(lexicon, command, tmp_path, capsys):
    path = tmp_path / "lex.mg"
    path.write_text(lexicon, encoding="utf-8")
    assert main([command[0], "--lexicon", str(path), *command[1:]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command,row", [
    ("parse", "reject\tposition 22\texpected: eat"),
    ("understand", "reject\trejected at token 22; expected one of: eat"),
])
def test_homophone_rejection_answers(command, row, tmp_path):
    # 2^20 ways to read old^20, all failing at the same token: the parser
    # rejects them in time linear in 20
    path = tmp_path / "lex.mg"
    path.write_text(HOMOPHONES, encoding="utf-8")
    done = mgumt_in_subprocess(command, "--lexicon", str(path), "--input",
                               "the " + "old " * 20 + "mouse cheese eats")
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-1] == row


@pytest.mark.parametrize("command", ["parse", "understand"])
def test_empty_language_rejection(command, tmp_path):
    # nothing derives c, which is not a leftover token at position 0
    path = tmp_path / "lex.mg"
    path.write_text("mouse\t::\tn\tmouse\n", encoding="utf-8")
    done = mgumt_in_subprocess(command, "--lexicon", str(path),
                               "--input", "mouse")
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines()[-1] == (
        "reject\tthe lexicon derives no sentence of category c")


def test_understand_constant_semantics(tmp_path, capsys):
    # a head whose semantics is a constant still composes along the parse
    path = tmp_path / "lex.mg"
    path.write_text(CONSTANT_EAT, encoding="utf-8")
    assert main(["understand", "--lexicon", str(path),
                 "--input", "the mouse eats cheese"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[-1] == "meaning\teat(cheese)(mouse)"


def test_budget_option_bounds_produce(gold_path, capsys):
    assert main(["produce", "--lexicon", gold_path, "--budget", "1",
                 "--meaning", "eat(cheese)(mouse)"]) == 1
    assert main(["produce", "--lexicon", gold_path, "--budget", "100",
                 "--meaning", "eat(cheese)(mouse)"]) == 0


def test_cli_output_byte_stable(gold_path, capsys):
    main(["compile", "--lexicon", gold_path])
    first = capsys.readouterr().out
    main(["compile", "--lexicon", gold_path])
    assert capsys.readouterr().out == first


def test_repl_session(teach_paths, monkeypatch, capsys, tmp_path):
    gold, _ = teach_paths
    lexfile = tmp_path / "learned.mg"
    lines = iter([
        "teach the mouse eats cheese | eat(cheese)(mouse)",
        "teach the rat eats cheese | eat(cheese)(rat)",
        "ask eat(cheese)(rat)",
        "lexicon",
        f"save {lexfile}",
        "quit",
    ])
    monkeypatch.setattr("builtins.input", lambda *_: next(lines))
    assert main(["repl", "--gold", gold]) == 0
    out = capsys.readouterr().out
    assert "the rat eats cheese" in out
    assert "teacher: endorse" in out
    assert len(load_lexicon(lexfile.read_text(encoding="utf-8"))) == 4


def test_repl_endorsement_is_normalized(monkeypatch, tmp_path):
    # a meaning endorsed with "yes" is evidence in normal form, so a
    # β-redex teaches what its normal form teaches
    def course(meaning):
        saved = tmp_path / "learned.mg"
        lines = iter(["teach the mouse eats cheese | eat(cheese)(mouse)",
                      f"ask {meaning}", "yes",
                      "teach the rat eats cheese | eat(cheese)(rat)",
                      f"save {saved}", "quit"])
        monkeypatch.setattr("builtins.input", lambda *_: next(lines))
        assert main(["repl"]) == 0
        return saved.read_text(encoding="utf-8")

    normal = course("eat(cheese)(mouse)")
    assert len(load_lexicon(normal)) == 4
    assert course("(\\x.eat(cheese)(x))(mouse)") == normal


@pytest.mark.parametrize("command", ["learn", "repl"])
def test_invalid_gold_lexicon_exit_code(command, teach_paths, tmp_path):
    path = tmp_path / "bad.mg"
    path.write_text("x\t::\tn =d\tmouse\n", encoding="utf-8")
    extra = ["--script", teach_paths[1]] if command == "learn" else []
    done = mgumt_in_subprocess(command, "--gold", str(path), *extra, stdin="")
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in done.stderr


def test_repl_survives_parser_budget(tmp_path):
    # the all-aged reading is the last of old^10's 2^10 that the teacher's
    # search would meet, and its steps run out first: the repl reports it
    # and goes on with the next command
    path = tmp_path / "gold.mg"
    path.write_text(HOMOPHONES, encoding="utf-8")
    meaning = "eat(cheese)(" + "aged(" * 10 + "mouse" + ")" * 11
    commands = ["teach the " + "old " * 10 + f"mouse eats cheese | {meaning}",
                f"ask {meaning}", "lexicon"]
    done = mgumt_in_subprocess("repl", "--gold", str(path),
                               stdin="\n".join(commands) + "\n")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    error = next(i for i, line in enumerate(lines) if line.startswith("error: "))
    assert lines[error + 1].endswith(f"mouse eats cheese\t:\tc\t{meaning}")
