"""The kernel module every layer calls through.

The package's modules import ``kernels`` from here, and
``perfbench/tracer.py`` wraps the kernel functions it finds here;
``BACKEND`` is the name the benchmark stamps on each run.
"""

from __future__ import annotations

from affineschur import _kernels_py as kernels

BACKEND: str = kernels.BACKEND
