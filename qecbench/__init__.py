"""The repository benchmark: seeded workloads run through the public API,
measured end to end and, in a separate traced run, layer by layer.

The entry point is ``qecbench/run.py``; ``BENCHMARK.json`` names the
metrics, ``answers.json`` holds the expected verdicts.

Which end-to-end metric each per-layer metric should move, and where:

=====================  ==========================================================
layer metrics          should move
=====================  ==========================================================
``codes.*``            ``tasks_per_s`` on ``sweep-store`` (compiling stays cold)
``verifier.*``         ``task_s_p50``, ``tasks_per_s`` on ``sweep-store`` (the
                       largest share left once solving is warm)
``vc.*``               ``task_s_p90`` on ``sweep-store`` (the Table 4 programs)
``smt.*``              ``tasks_per_s`` on ``sweep-store``; nothing on
                       ``service-mixed``
``api.absorb_s``       ``tasks_per_s`` on ``sweep-store`` (re-proving stored
                       clauses)
``api.self_s``         ``task_s_p50`` on ``service-mixed`` (measured in-process
                       on the sweep only; the server's share shows in
                       ``service.lane_busy_share``)
``store.*``            ``tasks_per_s`` and ``setup_s`` on ``sweep-store``; zero
                       on ``service-mixed``
``service.*``          ``task_s_p50``, ``tasks_per_s`` on ``service-mixed``;
                       zero on ``sweep-store``
``fill.*``             ``setup_s`` on ``sweep-store``: its set-up fill is a
                       cold pass, the one place cold solving (``fill.smt.*``)
                       and family warm start (``fill.api.absorb_s``) run
``setup.*``            ``setup_s`` of the workload each belongs to
=====================  ==========================================================
"""
