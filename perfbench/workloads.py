"""Benchmark workloads: generated inputs, timed CLI commands, and what each exercises.

Every workload is a closed loop with one client: each command starts only
after the previous one has exited. Inputs come from the workload seed alone.
Names, units and each workload's `why` live in BENCHMARK.json; this module
holds what the spec has no room for.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

# README quick-start noise, shared by every scene.
NOISE = {"fn_rate": 0.1, "fp_rate": 0.5, "box_jitter": 2.0, "kp_jitter": 1.0}
NOISE_FLAGS = tuple(
    part for key, value in NOISE.items() for part in (f"--{key.replace('_', '-')}", str(value))
)


@functools.cache
def spec() -> dict:
    """BENCHMARK.json at the repository root."""
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# Command kinds, in the order their metrics are reported.
KINDS = ("synth", "track", "evaluate", "evaluate_dets", "forward")


@dataclass(frozen=True)
class Command:
    """One timed CLI invocation and the files it must produce."""

    kind: str
    argv: tuple[str, ...]  # arguments after `python -m chimptrack.cli`
    outputs: tuple[Path, ...]
    sidecar: Path | None = None  # metrics JSON written by evaluate


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    full: dict  # size parameters at benchmark scale
    tiny: dict  # size parameters for the smoke test

    @property
    def why(self) -> str:
        return next(w["why"] for w in spec()["workloads"] if w["name"] == self.name)


# Sizes are chosen so that at least MIN_PIPELINES pipelines fit in one run
# of the spec's run_seconds on a 2-CPU machine.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="medium",
            inputs="synth --agents 8 --frames 250 with README noise; timed synth, track, evaluate, evaluate --task pose",
            exercises=("cli", "synth", "rng", "dataio", "tracker", "assign", "geometry", "metrics", "report"),
            bypasses=("kernels", "report.combine_sequences", "--workers"),
            full={"agents": 8, "frames": 250},
            tiny={"agents": 2, "frames": 20},
        ),
        Workload(
            name="multiseq",
            inputs=(
                "4 synth scenes of 12 agents x 300 frames with README noise, and the tracker's output on "
                "each scene's noisy detections, generated untimed; timed evaluate --gt DIR --pred DIR --workers 2"
            ),
            exercises=("cli", "dataio", "assign", "geometry", "metrics", "report"),
            bypasses=("synth", "rng", "tracker", "kernels"),
            full={"sequences": 4, "agents": 12, "frames": 300},
            tiny={"sequences": 4, "agents": 2, "frames": 20},
        ),
        Workload(
            name="forward",
            inputs="seeded (400, 64, 64, 3) float64 clip generated untimed; timed forward at default ModelDims, then track",
            exercises=("cli", "kernels", "dataio", "tracker", "assign", "geometry"),
            bypasses=("synth", "rng", "metrics", "report"),
            full={"frames": 400},
            tiny={"frames": 10},
        ),
    )
}
MIN_PIPELINES = 5


def sequence_frames(workload: Workload, tiny: bool) -> int:
    """Frames processed per pipeline, counted over all sequences."""
    size = workload.tiny if tiny else workload.full
    return size["frames"] * size.get("sequences", 1)


def prepare(workload: Workload, work: Path, seed: int, tiny: bool) -> list[Path]:
    """Build the untimed inputs of a workload; returns the files written."""
    size = workload.tiny if tiny else workload.full
    if workload.name == "multiseq":
        return _prepare_sequences(work, seed, **size)
    if workload.name == "forward":
        return _prepare_clip(work, seed, size["frames"])
    return []


def _prepare_sequences(work: Path, seed: int, sequences: int, agents: int, frames: int) -> list[Path]:
    """Annotations and tracked CSVs, as `synth` then `track` would write them."""
    from chimptrack import dataio, synth, tracker

    gt_dir, pred_dir = work / "gt", work / "pred"
    gt_dir.mkdir(parents=True, exist_ok=True)
    pred_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(sequences):
        # distinct scene seeds give distinct sequence ids ("synth-<seed>")
        scene_seed = 10 * seed + 2 * i
        scene = synth.generate(synth.SceneConfig(agents=agents, frames=frames), scene_seed)
        size = scene.annotation.image_size
        noisy = synth.perturb_detections(scene.detections, size, synth.NoiseConfig(**NOISE), scene_seed + 1)
        tracks = tracker.run(noisy)
        sid = scene.annotation.sequence_id
        gt_file, pred_file = gt_dir / f"{sid}.json", pred_dir / f"{sid}.csv"
        gt_file.write_text(dataio.dump_json(dataio.write_annotations(scene.annotation)))
        pred_file.write_text(dataio.write_mot_csv(tracks))
        written += [gt_file, pred_file]
    return written


def _prepare_clip(work: Path, seed: int, frames: int) -> list[Path]:
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    clip = work / "clip.npy"
    np.save(clip, np.random.default_rng(seed).random((frames, 64, 64, 3)))
    return [clip]


def commands(workload: Workload, work: Path, seed: int, tiny: bool) -> list[Command]:
    """The timed commands of one pipeline, in order."""
    size = workload.tiny if tiny else workload.full
    if workload.name == "multiseq":
        sidecar = work / "multiseq.metrics.json"
        argv = ("evaluate", "--gt", str(work / "gt"), "--pred", str(work / "pred"),
                "--workers", "2", "--out", str(sidecar))
        return [Command("evaluate", argv, (sidecar,), sidecar)]
    if workload.name == "forward":
        clip, dets, pred = work / "clip.npy", work / "clip.detections.json", work / "clip.csv"
        return [
            Command("forward", ("forward", str(clip), "--out", str(dets)), (dets,)),
            Command("track", ("track", str(dets), "--out", str(pred)), (pred,)),
        ]
    scene = work / "scene"
    ann, noisy, pred = scene / "annotations.json", scene / "detections_noisy.json", scene / "pred.csv"
    track_metrics, dets_metrics = scene / "pred.metrics.json", scene / "dets.metrics.json"
    synth_argv = ("synth", "--seed", str(seed), "--agents", str(size["agents"]),
                  "--frames", str(size["frames"]), *NOISE_FLAGS, "--out", str(scene))
    return [
        Command("synth", synth_argv, (ann, scene / "detections_clean.json", noisy)),
        Command("track", ("track", str(noisy), "--out", str(pred)), (pred,)),
        Command("evaluate", ("evaluate", "--gt", str(ann), "--pred", str(pred), "--out", str(track_metrics)),
                (track_metrics,), track_metrics),
        Command("evaluate_dets", ("evaluate", "--task", "pose", "--gt", str(ann), "--pred", str(noisy),
                                  "--out", str(dets_metrics)), (dets_metrics,), dets_metrics),
    ]
