"""Scripted teacher: holds the gold grammar, judges learner productions and
drives whole teaching sessions from script files.

A script is line-oriented: `teach <TAB> utterance <TAB> term` presents a
pair, `probe <TAB> term` asks the learner to express a meaning for feedback,
`expect <TAB> endorse|reject` asserts the verdict the teacher just gave.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .grammar import Lexicon, check_lexical_type, save_lexicon
from .learner import LearnerState, NoRepairFound, express, ingest, repair
from .mcfg import compile_grammar
from .terms import LambdaTerm, beta_reduce, parse_term, render_term
# all_meanings stays importable here: perfbench/spans.py traces it by this name
from .transducer import UMP, Unrealizable, all_meanings, match_meaning  # noqa: F401


class ScriptInvalid(Exception):
    pass


class GoldLexiconInvalid(Exception):
    pass


class Verdict(enum.Enum):
    ENDORSE = "endorse"
    REJECT_UNGRAMMATICAL = "reject-ungrammatical"
    REJECT_MEANING = "reject-meaning-mismatch"

    @property
    def is_reject(self) -> bool:
        return self is not Verdict.ENDORSE


@dataclass
class GoldGrammar:
    """Hand-written expert grammar; its lexical entries must respect the
    selector*/licensor* base licensee* type pattern.  It is compiled once,
    for the parser that judges with it."""
    lexicon: Lexicon

    def __post_init__(self):
        for entry in self.lexicon:
            if entry.stype.lexical and not check_lexical_type(entry.stype):
                raise GoldLexiconInvalid(
                    f"entry {entry!r} violates the lexical type pattern")
        self.grammar = compile_grammar(self.lexicon)


def judge(gold: GoldGrammar, utterance: str, meaning: LambdaTerm) -> Verdict:
    """Parse-and-compare, not string lookup: the utterance is ungrammatical
    if the gold grammar does not parse it, and endorsed if some parse means
    the meaning, so novel but grammatical learner productions pass.  The
    search stops at the first parse that means it."""
    path, parsed = match_meaning(gold.grammar, utterance, beta_reduce(meaning))
    if path is not None:
        return Verdict.ENDORSE
    return Verdict.REJECT_MEANING if parsed else Verdict.REJECT_UNGRAMMATICAL


# --- session scripts --------------------------------------------------------------

@dataclass(frozen=True)
class ScriptLine:
    op: str                       # teach | probe | expect
    ump: UMP | None = None
    meaning: LambdaTerm | None = None
    expectation: str | None = None


def parse_script(text: str) -> list[ScriptLine]:
    lines = []
    for ln, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.split("\t")
        op = parts[0].strip()
        try:
            if op == "teach" and len(parts) == 3:
                lines.append(ScriptLine("teach", ump=UMP(
                    parts[1].strip(), beta_reduce(parse_term(parts[2])))))
            elif op == "probe" and len(parts) == 2:
                lines.append(ScriptLine("probe",
                                        meaning=beta_reduce(parse_term(parts[1]))))
            elif op == "expect" and len(parts) == 2 \
                    and parts[1].strip() in ("endorse", "reject"):
                lines.append(ScriptLine("expect", expectation=parts[1].strip()))
            else:
                raise ScriptInvalid(f"line {ln}: cannot parse {raw!r}")
        except ScriptInvalid:
            raise
        except Exception as exc:
            raise ScriptInvalid(f"line {ln}: {exc}") from exc
    return lines


# --- session log -------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    kind: str        # presented | learner-said | unrealizable | verdict | snapshot
    payload: tuple

    def render(self) -> str:
        return "\t".join([self.kind, *map(str, self.payload)])


@dataclass
class SessionLog:
    events: list[Event] = field(default_factory=list)

    def add(self, kind, *payload):
        self.events.append(Event(kind, tuple(payload)))

    def snapshots(self) -> list[tuple[int, Lexicon]]:
        return [e.payload for e in self.events if e.kind == "snapshot"]

    def verdicts(self) -> list[Verdict]:
        return [e.payload[0] for e in self.events if e.kind == "verdict"]

    def render(self) -> str:
        out = []
        for e in self.events:
            if e.kind == "snapshot":
                t, lex = e.payload
                body = save_lexicon(lex).replace("\n", " ; ")
                out.append(f"snapshot\tt={t}\t{len(lex)} entries\t{body}")
            elif e.kind == "verdict":
                out.append(f"verdict\t{e.payload[0].value}")
            else:
                out.append(e.render())
        return "\n".join(out) + "\n"

    def to_script(self) -> str:
        """A script that replays this session verbatim."""
        lines = []
        events = self.events
        for i, e in enumerate(events):
            if e.kind == "presented":
                ump = e.payload[0]
                lines.append(f"teach\t{ump.exponent}\t{render_term(ump.meaning)}")
            elif e.kind in ("learner-said", "unrealizable"):
                meaning = e.payload[-1]
                lines.append(f"probe\t{render_term(meaning)}")
                for later in events[i + 1:]:
                    if later.kind == "verdict":
                        word = "endorse" if later.payload[0] is Verdict.ENDORSE \
                            else "reject"
                        lines.append(f"expect\t{word}")
                        break
                    if later.kind in ("presented", "learner-said", "unrealizable"):
                        break
        return "\n".join(lines) + "\n"


def validate_script(gold: GoldGrammar, script: list[ScriptLine]):
    for line in script:
        if line.op == "teach":
            verdict = judge(gold, line.ump.exponent, line.ump.meaning)
            if verdict is not Verdict.ENDORSE:
                raise ScriptInvalid(
                    f"teach pair {line.ump!r} is not derivable from gold "
                    f"({verdict.value})")


def run_session(gold: GoldGrammar, script: list[ScriptLine] | str,
                learner: LearnerState | None = None) -> tuple[SessionLog, LearnerState]:
    """Execute the script: teach feeds the learner, probe makes it speak and
    routes the verdict back (reject triggers repair)."""
    if isinstance(script, str):
        script = parse_script(script)
    if learner is None:
        learner = LearnerState()
    validate_script(gold, script)
    log = SessionLog()
    last_verdict: Verdict | None = None
    for line in script:
        if line.op == "teach":
            log.add("presented", line.ump)
            ingest(learner, line.ump)
            log.add("snapshot", learner.time, learner.lexicon)
            last_verdict = None
        elif line.op == "probe":
            try:
                said = express(learner, line.meaning)
            except Unrealizable:
                log.add("unrealizable", line.meaning)
                last_verdict = None
                continue
            log.add("learner-said", said.utterance, line.meaning)
            verdict = judge(gold, said.utterance, line.meaning)
            log.add("verdict", verdict)
            last_verdict = verdict
            if verdict is Verdict.ENDORSE:
                learner.endorsed.append(UMP(said.utterance, line.meaning))
            else:
                try:
                    repair(learner, (said.utterance, line.meaning))
                except NoRepairFound:
                    pass
            log.add("snapshot", learner.time, learner.lexicon)
        elif line.op == "expect":
            if last_verdict is None:
                raise ScriptInvalid("expect with no preceding probe verdict")
            got = "endorse" if last_verdict is Verdict.ENDORSE else "reject"
            if got != line.expectation:
                raise ScriptInvalid(
                    f"expected {line.expectation}, teacher said {got}")
    return log, learner
