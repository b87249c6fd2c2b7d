"""The hard observability requirement: observation never changes outputs.

An active observer must leave every computed artifact byte-identical
to the unobserved run — it reads and appends, never feeds back.  These
tests pin that with pickled-equality comparisons on whole reports.
"""

import pickle

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.avalanche.protocol import avalanche_factory
from repro.obs import Observer, observing
from repro.obs.events import read_log
from repro.types import SystemConfig


def small_sweep(workers):
    config = SystemConfig(n=4, t=1)
    patterns = [{p: p % 2 for p in config.process_ids}]
    return sweep(
        avalanche_factory(), config, patterns, [(3,)],
        standard_adversary_makers()[:3], seeds=(0, 1),
        run_full_rounds=4, workers=workers,
    )


class TestSweepByteIdentity:
    def test_serial_sweep(self, new_log):
        plain = small_sweep(workers=1)
        log = new_log()
        with observing(Observer(events=log)):
            observed = small_sweep(workers=1)
        assert pickle.dumps(plain) == pickle.dumps(observed)
        assert read_log(log.path)

    def test_pooled_sweep(self, new_log):
        plain = small_sweep(workers=2)
        log = new_log()
        with observing(Observer(events=log)):
            observed = small_sweep(workers=2)
        assert pickle.dumps(plain) == pickle.dumps(observed)
        assert read_log(log.path)
