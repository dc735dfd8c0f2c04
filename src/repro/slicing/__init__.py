"""Slicing: fine-grained subsets with extra model capacity (§2.2).

A slice is an ordinary ``slice:<name>`` tag on its records, so its
quality is a row of the per-tag report:
``run.report(dataset, tags=[slice_tag(name)])``.
"""

from repro.slicing.slice import SliceSet, SliceSpec, expand_membership_to_items
from repro.slicing.heads import (
    SliceAwareHead,
    SliceForward,
    predicted_membership,
    slice_loss,
)

__all__ = [
    "SliceSet",
    "SliceSpec",
    "expand_membership_to_items",
    "SliceAwareHead",
    "SliceForward",
    "predicted_membership",
    "slice_loss",
]
