"""Layer micro-benchmarks of the transducer: `recognize` and the semantic
queue (`understand`) on clause embeddings of growing depth, the meaning
alone against the rebuilt semantic trace, every reading of a homophone
sentence, the rejection of a long one, and the two kinds of operation
behind the benchmark's `understand` workload: a sentence of a 60-entry
lexicon shaped like the teaching gold, and a rejected depth-40 embedding.
The suite does not collect this file; run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_transducer.py
"""

import random

import pytest
from test_transducer import teaching_gold_shaped

from mgumt.fixtures import TABLE_ONE
from mgumt.grammar import load_lexicon
from mgumt.mcfg import compile_grammar
from mgumt.transducer import ParseRejected, all_meanings, recognize, understand

EMBEDDING = compile_grammar(load_lexicon(
    TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\nrat\t::\tn\trat\n"))
HOMOPHONES = compile_grammar(load_lexicon(
    TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\nold\t::\t=n n\t\\x.aged(x)\n"))


def embedded(depth: int) -> str:
    return " ".join(["the rat eats that"] * depth + ["the mouse eats cheese"])


@pytest.mark.parametrize("depth", [10, 40, 160])
def test_recognize_embedding(benchmark, depth):
    assert benchmark(recognize, EMBEDDING, embedded(depth)).accepted


@pytest.mark.parametrize("depth", [10, 40, 160])
def test_understand_embedding(benchmark, depth):
    got = benchmark(understand, EMBEDDING, embedded(depth))
    assert got.parse.accepted


@pytest.mark.parametrize("depth", [40, 160])
def test_understand_meaning_only(benchmark, depth):
    # the fold alone: no semantic row is built
    benchmark(lambda: understand(EMBEDDING, embedded(depth)).meaning)


@pytest.mark.parametrize("depth", [40, 160])
def test_understand_render(benchmark, depth):
    # the fold, then every semantic row rebuilt and rendered
    benchmark(lambda: understand(EMBEDDING, embedded(depth)).render())


def test_all_meanings_old8(benchmark):
    got = benchmark(all_meanings, HOMOPHONES,
                    "the " + "old " * 8 + "mouse eats cheese")
    assert len(got) == 256


def test_understand_rejects_old20(benchmark):
    def rejected():
        with pytest.raises(ParseRejected):
            understand(HOMOPHONES, "the " + "old " * 20 + "mouse cheese eats")

    benchmark(rejected)


def test_understand_teaching_gold_60(benchmark):
    text, sentences = teaching_gold_shaped(random.Random(60), 60)
    grammar = compile_grammar(load_lexicon(text))
    got = benchmark(understand, grammar, sentences[0])
    assert got.parse.accepted


def test_understand_rejects_embedding_40(benchmark):
    words = embedded(40).split()
    words[-2:] = words[-1], words[-2]

    def rejected():
        with pytest.raises(ParseRejected):
            understand(EMBEDDING, " ".join(words))

    benchmark(rejected)
