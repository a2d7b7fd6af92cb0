"""Load numpy as the command line does, with OpenBLAS on one thread, before
any test module imports it (see :func:`rqmsim.cli.load_numpy`)."""

from rqmsim.cli import load_numpy

load_numpy()
