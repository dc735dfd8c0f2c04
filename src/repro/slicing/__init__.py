"""Slicing: fine-grained subsets with extra model capacity (§2.2).

A slice is an ordinary ``slice:<name>`` tag on its records, so its
quality is a row of the per-tag report:
``run.report(dataset, tags=[slice_tag(name)])``.
"""

from repro.slicing.slice import SliceSet, SliceSpec
from repro.slicing.heads import (
    SliceAwareHead,
    SliceForward,
    slice_loss,
)

__all__ = [
    "SliceSet",
    "SliceSpec",
    "SliceAwareHead",
    "SliceForward",
    "slice_loss",
]
