"""NVMe-style multi-queue host interface: namespaces, arbitration, QoS.

This package is the layer *above* the device model: it carves one
:class:`repro.ssd.ssd.SimulatedSSD` into disjoint namespaces, gives each
tenant its own submission queue, and arbitrates which queue's head request
is admitted every time a device slot frees — round-robin, weighted
round-robin or strict priority, optionally throttled by token buckets
(IOPS / bandwidth caps) appended to a namespace's ``limiters``.  Tenants
are handed over as one ``{namespace: stream}`` mapping: a trace carrying
timestamps replays open-loop, any other stream closed-loop.

* :mod:`repro.host.namespace` — namespaces + per-tenant statistics;
* :mod:`repro.host.arbiter` — arbitration policies and token buckets;
* :mod:`repro.host.interface` — submission queues, the multi-queue
  admission frontend, and the user-facing :class:`HostInterface`.
"""
