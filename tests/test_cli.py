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
                 "--out", str(outdir), "--budget", "200"]) == 0
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


EMBEDDING = TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\nrat\t::\tn\trat\n"
HOMOPHONES = (TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
              + "old\t::\t=n n\t\\x.aged(x)\n")
CONSTANT_EAT = TABLE_ONE.replace("\\x.\\y.eat(x)(y)", "eat")


@pytest.mark.parametrize("command,lexicon,sentence", [
    ("parse", EMBEDDING,
     " ".join(["the rat eats that"] * 60 + ["the mouse eats cheese"])),
    ("parse", HOMOPHONES, "the " + "old " * 10 + "mouse cheese eats"),
    ("understand", CONSTANT_EAT, "the mouse eats cheese"),
], ids=["recursion", "parser-budget", "semantic-stuck"])
def test_limit_exit_code(command, lexicon, sentence, tmp_path, capsys):
    path = tmp_path / "lex.mg"
    path.write_text(lexicon, encoding="utf-8")
    assert main([command, "--lexicon", str(path), "--input", sentence]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_budget_env_override(gold_path, capsys, monkeypatch):
    monkeypatch.setenv("UMT_BUDGET", "1")
    assert main(["produce", "--lexicon", gold_path,
                 "--meaning", "eat(cheese)(mouse)"]) == 1
    monkeypatch.setenv("UMT_BUDGET", "100")
    assert main(["produce", "--lexicon", gold_path,
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
