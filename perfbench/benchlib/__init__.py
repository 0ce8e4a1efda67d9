"""Support code for ``perfbench/run.py``, the end-to-end benchmark of
``repro serve`` and the quick reproduction sweep.

* :mod:`benchlib.stats` — percentile selection and summaries;
* :mod:`benchlib.workloads` — the seeded query generators;
* :mod:`benchlib.server` — spawning, probing and stopping a server
  process, and reading its peak memory;
* :mod:`benchlib.client` — the closed-loop HTTP client;
* :mod:`benchlib.tracing` — spans around the calls into each layer,
  used by ``traced_serve.py`` and ``sweep_child.py``;
* :mod:`benchlib.hostspeed` — the host's CPU speed, sampled while
  measuring, which scales every timing to a reference speed.
"""
