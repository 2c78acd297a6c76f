"""Shared pytest fixtures."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from dataclasses import replace

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.flash.oob import oob_size_for_gamma, required_oob_bytes
from repro.ssd.ssd import SimulatedSSD


@pytest.fixture
def tiny_config() -> SSDConfig:
    """A small device that keeps unit tests fast."""
    return SSDConfig.tiny()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_ssd(
    ftl=None,
    config: SSDConfig | None = None,
    gamma: int = 0,
    dram_bytes: int | None = None,
    **ssd_kwargs,
) -> SimulatedSSD:
    """Build a small SSD with the given FTL (LeaFTL by default)."""
    config = config or SSDConfig.tiny()
    if ftl is None:
        ftl = LeaFTL(LeaFTLConfig(gamma=gamma, compaction_interval_writes=10_000))
    # Provision a spare area large enough for the FTL's reverse-mapping
    # window: the default 128-byte OOB holds gamma <= 15, so gamma = 16
    # tests get the next standard spare size (256 bytes) automatically.
    window = ftl.oob_window()
    if required_oob_bytes(window) > config.oob_size:
        config = replace(config, oob_size=oob_size_for_gamma(window))
    budget = DRAMBudget(dram_bytes=dram_bytes or config.dram_size)
    return SimulatedSSD(config=config, ftl=ftl, dram_budget=budget, **ssd_kwargs)


@pytest.fixture
def tiny_leaftl_ssd() -> SimulatedSSD:
    return make_ssd()


#: ``--hypothesis-profile=deep``: the properties that size their example
#: count from the loaded profile run this many — the whole-device machine
#: (``tests/test_device_machine.py``, with longer histories too) and the
#: carry-vs-relearn differential (``tests/test_carry_differential.py``);
#: CI's explicit steps for both load it.
settings.register_profile("deep", max_examples=200)
