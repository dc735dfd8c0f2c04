"""repro.workloads.synth: parametric workloads with a difficulty model.

The hand-built workloads sample a few points of the scenario space; this
package makes the space itself addressable.  A frozen, JSON-serializable
:class:`WorkloadSpec` declares scale, vocabulary, sequence shape, label
noise, weak-source conflict, slice skew/rarity, entity ambiguity, and a
concept-drift schedule; :class:`SynthGenerator` streams byte-identical
records for it on any machine; the difficulty model predicts — and
measures — how hard each spec is for the reference trainer; and the
workload registry gives benches one front door to every workload, hand
or synthetic.  See ``docs/workloads.md``.
"""

from repro.workloads.synth.difficulty import (
    CalibrationReport,
    CalibrationRow,
    MeasuredDifficulty,
    calibrate,
    measure_difficulty,
    predicted_components,
    predicted_difficulty,
    reference_config,
)
from repro.workloads.synth.generator import (
    Reading,
    SynthGenerator,
    SynthWorld,
    build_schema,
)
from repro.workloads.synth.presets import SYNTH_PRESETS, preset
from repro.workloads.synth.registry import (
    BuiltWorkload,
    WorkloadEntry,
    build_application,
    build_from_spec,
    build_workload,
    default_model_config,
    get_workload,
    register_workload,
    resolve_workload,
    workload_names,
)
from repro.workloads.synth.sources import live_labeler
from repro.workloads.synth.spec import (
    HARD_SLICE,
    RARE_SLICE,
    SOURCE_FAMILIES,
    DriftPhase,
    WorkloadSpec,
)

__all__ = [
    "WorkloadSpec",
    "DriftPhase",
    "SOURCE_FAMILIES",
    "RARE_SLICE",
    "HARD_SLICE",
    "SynthGenerator",
    "SynthWorld",
    "Reading",
    "build_schema",
    "SYNTH_PRESETS",
    "preset",
    "BuiltWorkload",
    "WorkloadEntry",
    "build_application",
    "build_from_spec",
    "build_workload",
    "default_model_config",
    "get_workload",
    "register_workload",
    "resolve_workload",
    "workload_names",
    "live_labeler",
    "MeasuredDifficulty",
    "CalibrationReport",
    "CalibrationRow",
    "calibrate",
    "measure_difficulty",
    "predicted_components",
    "predicted_difficulty",
    "reference_config",
]
