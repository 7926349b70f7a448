"""Stand-in for the retired optional numba kernel.

Compiled programs execute through :func:`repro.routing.verify.verify_program`
(see :mod:`repro.sim.engine`); no jitted kernel exists.  The frozen
benchmark harness (``perfbench/run.py``) still reads this flag, so it stays
until that harness next changes.
"""

HAVE_NUMBA = False
