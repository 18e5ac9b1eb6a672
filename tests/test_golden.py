"""Byte-identity guards for sweeps, and the config keys' env and flag paths.

The digests pin the CSV text of five small sweeps as the program produced it
before the confidence radius, the certifier constructor and the config table
were each folded into one definition, and of a sixth, whose intervals miss
their values, as it was before reports counted their final ambiguous set and
conflicts from the weak state and the reveals.  Any change to an interval, a
strong trace, a selected set or a metric changes a digest.
"""

import hashlib

import pytest

from topkcert import harness
from topkcert.cli import build_parser, resolve_config
from topkcert.harness import BASE_DEFAULTS, SweepSpec, rows_to_csv_text, run_sweep

ALGOS = ("stc", "ace", "ace_w", "ta")

GOLDEN_SWEEPS = {
    "scaling_n": (
        dict(experiment="scaling_n", grid=[200, 400], replicates=2, base={"k": 20},
             algorithms=ALGOS + ("brute",)),
        "8b85ec34ae9937ded7405558472ca2bfadd7f43957cdeb0bda78b8934e822cb0",
    ),
    "anytime_empirical_bernstein": (
        dict(experiment="scaling_n", grid=[300], replicates=2, algorithms=ALGOS,
             base={"k": 20, "n_weak": 400, "weak_budget": 60000,
                   "ci.method": "anytime_empirical_bernstein", "ci.clamp": True}),
        "6691415411e36801fe6386b604a5c884601bf63768822b78cacd8aa60ae6f62a",
    ),
    "empirical_bernstein": (
        dict(experiment="scaling_n", grid=[300], replicates=2, algorithms=ALGOS,
             base={"k": 20, "n_weak": 400, "weak_budget": 60000, "w_min": 1,
                   "ci.method": "empirical_bernstein", "ci.clamp": True}),
        "0de1b60bc0ab66bf7cb39cfa7b9c2c84df26ae3874e78639437805a8376c3235",
    ),
    "coverage": (
        dict(experiment="coverage", grid=[300, 600], replicates=2, base={"k": 20}),
        "65c99ad3740a119bb15d8fa32f5ac08c1b04036b6fb21bdd1ed76a2b50895109",
    ),
    "lower_bound": (
        dict(experiment="lower_bound", grid=[10, 40], replicates=2, base={"n": 300, "k": 5},
             algorithms=("stc", "ace")),
        "dd31dde65b9a5635647c6e5f739dbc7a368e04b245589cd1ce2751b01cb62d80",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_digest(name):
    kwargs, digest = GOLDEN_SWEEPS[name]
    text = rows_to_csv_text(run_sweep(SweepSpec(**kwargs)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Intervals of ci.sigma 0.03 at oracle.sigma 0.1 miss their values: every
# certifier but brute makes conflicting strong reveals, and ambiguous_final
# falls below k, which no sweep above shows.  Each run's interval_conflicts,
# in sweep order (per point, per seed, per algorithm), is not a CSV column.
NARROW_SWEEP = dict(experiment="scaling_n", grid=[200, 400], replicates=3,
                    base={"k": 20, "ci.sigma": 0.03}, algorithms=ALGOS + ("brute",))
NARROW_DIGEST = "6b28cb6afb1b3a788abf1f016ed9883b505240ef7d551988c921fa58d75e6eda"
NARROW_CONFLICTS = (
    4, 2, 4, 3, 0, 7, 2, 5, 4, 0, 6, 3, 7, 6, 0,
    9, 4, 1, 8, 0, 6, 3, 11, 5, 0, 7, 4, 4, 5, 0,
)


def test_sweep_with_conflicting_reveals_matches_golden(monkeypatch):
    conflicts = []
    run_replicate = harness.run_replicate

    def recording(*args, **kwargs):
        results = run_replicate(*args, **kwargs)
        conflicts.extend(result.report.interval_conflicts for result in results)
        return results

    monkeypatch.setattr(harness, "run_replicate", recording)
    text = rows_to_csv_text(run_sweep(SweepSpec(**NARROW_SWEEP)))
    assert hashlib.sha256(text.encode()).hexdigest() == NARROW_DIGEST
    assert tuple(conflicts) == NARROW_CONFLICTS


# every config key: (raw text, the value it coerces to, whose type is checked)
SAMPLES = {
    "n": ("321", 321),
    "k": ("17", 17),
    "gap": ("0.07", 0.07),
    "delta": ("0.1", 0.1),
    "delta_weak_fraction": ("0.5", 0.5),
    "n_weak": ("9", 9),
    "weak_budget": ("5000", 5000),
    "w_min": ("3", 3),
    "w_max": ("40", 40),
    "near_ties": ("8", 8),
    "tail_fraction": ("0.25", 0.25),
    "oracle.noise": ("exact", "exact"),
    "oracle.sigma": ("0.2", 0.2),
    "oracle.seed": ("5", 5),
    "oracle.strong_cap": ("99", 99),
    "ci.method": ("empirical_bernstein", "empirical_bernstein"),
    "ci.sigma": ("0.3", 0.3),
    "ci.range": ("0.5", 0.5),
    "ci.clamp": ("true", True),
}


def test_samples_cover_every_config_key():
    assert set(SAMPLES) == set(BASE_DEFAULTS)


def _resolve(argv):
    return resolve_config(build_parser().parse_args(["verify", *argv]))


def _assert_only_key_changed(cfg, key):
    raw, value = SAMPLES[key]
    assert cfg[key] == value and type(cfg[key]) is type(value)
    assert {k: v for k, v in cfg.items() if k != key} == {
        k: v for k, v in BASE_DEFAULTS.items() if k != key
    }


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_config_key_through_env_var(key, monkeypatch):
    monkeypatch.setenv("TOPKCERT_" + key.upper().replace(".", "_"), SAMPLES[key][0])
    _assert_only_key_changed(_resolve([]), key)


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_config_key_through_flag(key):
    flag = "--" + key.removeprefix("oracle.").replace(".", "-").replace("_", "-")
    raw, value = SAMPLES[key]
    _assert_only_key_changed(_resolve([flag] if value is True else [flag, raw]), key)
