"""Imports csdetect before any test module imports numpy, so the package's
OPENBLAS_NUM_THREADS=1 pin applies to the whole test process, as it does to
the csdetect command."""

import sys

assert "numpy" not in sys.modules, "numpy loaded before csdetect could pin OpenBLAS's threads"

import csdetect  # noqa: E402,F401
