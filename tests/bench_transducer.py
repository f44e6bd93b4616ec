"""Layer micro-benchmarks of the transducer: `recognize` and the semantic
queue (`understand`) on clause embeddings of growing depth, and the
rejection of a long homophone sentence.  The suite does not collect this
file; run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_transducer.py
"""

import pytest

from mgumt.fixtures import TABLE_ONE
from mgumt.grammar import load_lexicon
from mgumt.mcfg import compile_grammar
from mgumt.transducer import ParseRejected, recognize, understand

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


def test_understand_rejects_old20(benchmark):
    def rejected():
        with pytest.raises(ParseRejected):
            understand(HOMOPHONES, "the " + "old " * 20 + "mouse cheese eats")

    benchmark(rejected)
