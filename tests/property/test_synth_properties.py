"""Property tests for the parametric synth workload generator.

These are the contract tests behind ``docs/workloads.md``'s claims:

* a spec file *is* the dataset — byte-identical streams across fresh
  processes, order-independent per-record generation;
* generation is streaming — peak memory does not grow with ``n``;
* the difficulty knobs point the right way — turning one up measurably
  degrades the reference trainer;
* slice rarity is a control, not a suggestion — the rare slice's
  frequency tracks the knob;
* drift schedules are detectable exactly when they should be — the
  storm preset trips :func:`repro.monitoring.detect_drift`, the calm
  preset does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import repro
from repro.monitoring import detect_drift
from repro.workloads.synth import (
    RARE_SLICE,
    SynthGenerator,
    WorkloadSpec,
    measure_difficulty,
    preset,
    reference_config,
)

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: The monotonicity base: small enough for tier-1, large enough that the
#: measured error margins are stable (verified across seeds).
BASE = WorkloadSpec(
    name="prop",
    n=300,
    seed=3,
    vocab_size=80,
    label_noise=0.15,
    conflict_rate=0.0,
    slice_skew=0.8,
    slice_rarity=0.1,
    ambiguity=0.4,
    keyword_dropout=0.05,
)


def _measured_error(spec: WorkloadSpec) -> float:
    return measure_difficulty(
        spec, reference_config(size=12, epochs=3)
    ).overall_error


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def _fingerprint_in_subprocess(spec_path: Path, n: int) -> subprocess.Popen:
    code = (
        "from repro.workloads.synth import SynthGenerator, WorkloadSpec\n"
        f"g = SynthGenerator(WorkloadSpec.from_file({str(spec_path)!r}))\n"
        f"print(g.stream_fingerprint({n}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_spec_reproduces_identical_streams_across_processes(tmp_path):
    """One spec JSON -> byte-identical 100k-record streams, fresh processes."""
    n = 100_000
    spec = preset("synth-drift-storm").scaled(n)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    first = _fingerprint_in_subprocess(spec_path, n)
    second = _fingerprint_in_subprocess(spec_path, n)
    out_a, err_a = first.communicate(timeout=300)
    out_b, err_b = second.communicate(timeout=300)
    assert first.returncode == 0, err_a
    assert second.returncode == 0, err_b
    assert out_a.strip() == out_b.strip()
    assert len(out_a.strip()) == 64  # a real sha256, not empty output


def test_records_are_order_independent():
    """record(i) is a pure function of (spec, i) — order of calls is noise."""
    spec = BASE.scaled(500)
    forward = SynthGenerator(spec)
    backward = SynthGenerator(spec)
    sample = [0, 7, 123, 250, 499]
    in_order = [forward.record(i, spec.n).to_dict() for i in sample]
    reversed_order = [
        backward.record(i, spec.n).to_dict() for i in reversed(sample)
    ]
    assert in_order == list(reversed(reversed_order))


def test_json_round_trip_is_exact():
    spec = preset("synth-drift-storm").scaled(123).reseeded(7)
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec
    assert spec.fingerprint() == WorkloadSpec.from_dict(spec.to_dict()).fingerprint()


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------


def _peak_streaming_bytes(n: int) -> int:
    generator = SynthGenerator(BASE.scaled(n))
    tracemalloc.start()
    count = sum(1 for _ in generator.iter_records(n))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == n
    return peak


def test_streaming_memory_is_independent_of_n():
    """10x the records must not mean 10x the memory: nothing accumulates.

    Scales are small because tracemalloc slows generation ~10x, but the
    streaming peak reaches steady state within the first few records —
    any per-record accumulation would still blow the 2x bound.
    """
    small = _peak_streaming_bytes(500)
    large = _peak_streaming_bytes(5_000)
    assert large < 2 * small, (small, large)


# ----------------------------------------------------------------------
# Monotonicity: harder specs are measurably harder
# ----------------------------------------------------------------------


def test_label_noise_degrades_trainer_quality():
    easy = _measured_error(BASE.replace(label_noise=0.05))
    hard = _measured_error(BASE.replace(label_noise=0.45))
    assert hard > easy + 0.02, (easy, hard)


def test_conflict_rate_degrades_trainer_quality():
    # Isolated to the sources weak_b can actually poison: with the
    # keyword/crowd rescuers in play the label model routes around the
    # conflict and the margin collapses into noise.
    isolated = BASE.replace(
        sources=("weak_a", "weak_b", "lf_tagger", "lf_types", "lf_pop", "lf_compat")
    )
    easy = _measured_error(isolated.replace(conflict_rate=0.0))
    hard = _measured_error(isolated.replace(conflict_rate=0.55))
    assert hard > easy + 0.02, (easy, hard)


def test_keyword_dropout_degrades_trainer_quality():
    easy = _measured_error(BASE.replace(keyword_dropout=0.02))
    hard = _measured_error(BASE.replace(keyword_dropout=0.5))
    assert hard > easy + 0.02, (easy, hard)


# ----------------------------------------------------------------------
# Slice rarity is a frequency control
# ----------------------------------------------------------------------


def _rare_fraction(spec: WorkloadSpec) -> float:
    tag = f"slice:{RARE_SLICE}"
    generator = SynthGenerator(spec)
    hits = sum(1 for r in generator.iter_records(spec.n) if tag in r.tags)
    return hits / spec.n


def test_slice_rarity_controls_rare_slice_frequency():
    n = 4_000
    low = _rare_fraction(BASE.replace(n=n, slice_rarity=0.02))
    high = _rare_fraction(BASE.replace(n=n, slice_rarity=0.10))
    assert 0.01 <= low <= 0.04, low
    assert 0.07 <= high <= 0.14, high
    assert high > low


# ----------------------------------------------------------------------
# Drift schedules: detectable exactly when they should be
# ----------------------------------------------------------------------


def _drift_report(preset_name: str):
    spec = preset(preset_name).scaled(500)
    reference = SynthGenerator(spec.without_drift()).dataset(validate=False)
    live_tail = [
        r.payloads
        for r in SynthGenerator(spec).iter_records(spec.n, start=int(spec.n * 0.6))
    ]
    vocab = reference.build_vocabs()["tokens"]
    return detect_drift(
        [r.payloads for r in reference.records],
        live_tail,
        vocab,
        js_threshold=0.35,
        oov_threshold=0.05,
    )


def test_drift_storm_is_detected_and_calm_is_not():
    storm = _drift_report("synth-drift-storm")
    calm = _drift_report("synth-drift-calm")
    assert storm.drifted(), storm
    assert storm.oov_rate_live > 0.2, storm
    assert not calm.drifted(), calm
    assert calm.oov_rate_live < 0.05, calm
