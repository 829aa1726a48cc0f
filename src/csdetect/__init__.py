"""Compressed-sensing output-space encoding and decoding for detecting
sparse 2-D points (cell centroids) in images.

Annotations are encoded into short real vectors by random Gaussian
projection, predicted by a pluggable regressor (or a noisy oracle),
recovered by L1 minimization and decoded back into point detections.
"""

import os

# A threaded BLAS splits its sums by the core count, which changes trained
# weights in their last bits; one thread gives the same model on any core
# count. OpenBLAS reads this once, when numpy first loads it, so it only
# takes effect when csdetect is imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import AnnotationSet, DetectionResult, ImageGrid
from .decoder import DecodeParams, decode_scheme1, decode_scheme2, merge_ensemble
from .encoder import AxisLayout, build_axis_layout, encode_scheme1, encode_scheme2
from .evaluation import MatchReport, match_detections, prf1
from .recovery import RecoveryParams, bp_recover, omp_recover
from .sensing import SensingMatrix, make_sensing_matrix

__version__ = "0.1.0"
