"""Discrete-state reverse-diffusion sampling toolkit.

Two exact reverse-process models (a uniform toy and a masked
absorbing-state toy) whose rates come from exact scores, a batched sampler
engine (Euler, tau-leaping, uniformization, and the two-stage theta
schemes) run by :func:`thetaleap.engine.run_sampler`, and a statistical
harness for KL-based convergence studies.

Names are imported from their modules (``thetaleap.engine``,
``thetaleap.masked``, ``thetaleap.models``, ``thetaleap.metrics``,
``thetaleap.cli``); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
