"""Compressed-sensing output-space encoding and decoding for detecting
sparse 2-D points (cell centroids) in images.

Annotations are encoded into short real vectors by random Gaussian
projection, predicted by a pluggable regressor (or a noisy oracle),
recovered by L1 minimization and decoded back into point detections.
"""

from .core import AnnotationSet, DetectedPoint, DetectionResult, ImageGrid
from .decoder import DecodeParams, decode_scheme1, decode_scheme2, merge_ensemble
from .encoder import AxisLayout, build_axis_layout, encode_scheme1, encode_scheme2
from .evaluation import MatchReport, match_detections, prf1
from .recovery import RecoveryParams, bp_recover, omp_recover
from .sensing import SensingMatrix, make_sensing_matrix, minimum_rows

__version__ = "0.1.0"
