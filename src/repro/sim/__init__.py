"""Event-driven simulation engine: event loop, NAND scheduling, host frontend.

This package supplies the concurrency substrate of the SSD model:

* :class:`repro.sim.events.EventLoop` — deterministic time-ordered queue;
* :class:`repro.sim.nand.NANDScheduler` — per-channel-bus timing;
* :class:`repro.sim.frontend.Frontend` — the one admission engine, with the
  closed-loop (:class:`~repro.sim.frontend.HostFrontend`) and open-loop
  (:class:`~repro.sim.frontend.OpenLoopFrontend`) single-queue policies.

:class:`repro.ssd.ssd.SimulatedSSD` uses these pieces when its
replay is open-loop, keeps more than one request outstanding or runs
background GC, letting foreground reads genuinely overlap background flush
and GC traffic.
"""
