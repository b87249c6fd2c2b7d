"""The determinism pass flags every planted violation, at the right place."""

import pathlib

from repro.statics.determinism import check_determinism
from repro.statics.model import parse_module

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "tree"
SOURCE = (FIXTURES / "core" / "bad_determinism.py").read_text()


def findings():
    return check_determinism(parse_module(SOURCE, "tree/core/bad_determinism.py"))


def test_reports_every_planted_violation():
    got = {(f.rule, f.line) for f in findings()}
    assert got == {
        ("DET001", 6),   # import random
        ("DET001", 7),   # import time
        ("DET001", 8),   # from os import urandom
        ("DET002", 14),  # random.random()
        ("DET002", 15),  # time.time()
        ("DET002", 16),  # urandom(8)
        ("DET003", 17),  # np.random.default_rng()
        ("DET004", 21),  # for value in set(values)
        ("DET005", 23),  # next(iter(values))
        ("DET005", 31),  # self.pending.pop()
    }


def test_symbols_name_the_enclosing_scope():
    by_line = {f.line: f for f in findings()}
    assert by_line[14].symbol == "coin"
    assert by_line[21].symbol == "first"
    assert by_line[31].symbol == "Tracker.drain"
    assert by_line[6].symbol == "<module>"


def test_path_is_passed_through():
    assert {f.path for f in findings()} == {"tree/core/bad_determinism.py"}


def test_clean_constructs_stay_clean():
    clean = (
        "import numpy as np\n"
        "from repro.runtime.rng import derive_rng\n"
        "def run(seed, items):\n"
        "    rng: np.random.Generator = derive_rng(seed, 'x')\n"
        "    for item in sorted(set(items)):\n"
        "        rng.integers(0, 2)\n"
        "    return {k: v for k, v in sorted(items)}\n"
    )
    assert check_determinism(parse_module(clean, "clean.py")) == []


def test_numpy_generator_annotation_is_not_a_call():
    source = (
        "import numpy as np\n"
        "def f(rng: np.random.Generator):\n"
        "    return rng.integers(0, 2)\n"
    )
    assert check_determinism(parse_module(source, "ann.py")) == []
