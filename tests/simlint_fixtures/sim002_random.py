# Fixture for SIM002 (seeded-random-only).  See sim001 fixture for the
# marker convention.  NOT imported — parsed by simlint only.
import random
from random import randint


def bad_module_level() -> float:
    return random.random()  # expect: SIM002


def bad_from_import() -> int:
    return randint(0, 10)  # expect: SIM002


def bad_shuffle(items) -> None:
    random.shuffle(items)  # expect: SIM002


def bad_seed_global() -> None:
    random.seed(7)  # expect: SIM002


def bad_unseeded_instance():
    return random.Random()  # expect: SIM002


def suppressed() -> float:
    return random.random()  # simlint: disable=SIM002


def ok_injected(rng: random.Random) -> int:
    # Injected, seeded instances are the sanctioned pattern.
    return rng.randint(0, 10)


def ok_seeded_construction():
    a = random.Random(42)
    b = random.Random(seed=3)
    return a, b
