"""Predict whether an image classifier stays reliable under image distortion.

The pipeline: sample distortion levels (uniformly or guided by a Gaussian
process surrogate of the classifier's accuracy), label each level reliable /
non-reliable against a threshold, rebalance the resulting set, train small
distortion-classifiers on it, and score them on a dense grid of levels.
"""

__version__ = "0.1.0"
