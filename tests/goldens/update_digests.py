"""The digest matrix: the sha256 of every file and stdout of a fixed set of commands.

tests/goldens/digests.json records these digests together with the platform
that made them, and tests/test_digests.py regenerates the matrix in process
and compares. The matrix:

- synth 8 x 250 with the README noise plus --kp-jitter 1.0 at seeds 9 and
  271828: its three files and its stdout;
- track on the noisy and the clean detections of each scene: its CSV and stdout;
- evaluate for all four tasks on the noisy and the clean predictions of each
  scene, with --format json: each sidecar and its stdout;
- one evaluate over three small sequences for all four tasks, with the
  table format, at --workers 1 and 2: each sidecar and its stdout;
- selfcheck --format json at seeds 0 and 9: its stdout;
- forward on the seeded 40 x 64 x 64 x 3 clip, then track on its output.

Every command runs with relative paths inside one working directory, so no
stdout names a directory. A change that moves an output on purpose rewrites
the manifest with

    PYTHONPATH=src python tests/goldens/update_digests.py

and lists each moved field in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("digests.json")
NOISE = ("--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0", "--kp-jitter", "1.0")
TASKS = ("tracking", "detection", "pose", "behavior")


def current_platform() -> dict[str, str]:
    import numpy as np

    return {"machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(workdir: Path) -> dict[str, str]:
    """Run the matrix inside workdir; returns {output name: sha256}, named by file path or "<name>.stdout"."""
    import numpy as np

    from chimptrack.cli import main

    digests: dict[str, str] = {}

    def run(name: str, argv: list[str], files: tuple[str, ...] = ()) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{name}: chimptrack {' '.join(argv)} exited with {code}")
        digests[f"{name}.stdout"] = _sha256(out.getvalue().encode())
        for f in files:
            digests[f] = _sha256(Path(f).read_bytes())

    home = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in (9, 271828):
            s = f"s{seed}"
            scene = tuple(f"{s}/{n}" for n in ("annotations.json", "detections_clean.json", "detections_noisy.json"))
            run(f"{s}/synth", ["synth", "--seed", str(seed), "--agents", "8", "--frames", "250", *NOISE, "--out", s], scene)
            for kind in ("noisy", "clean"):
                dets, csv = f"{s}/detections_{kind}.json", f"{s}/{kind}.csv"
                run(f"{s}/{kind}.track", ["track", dets, "--out", csv], (csv,))
                for task in TASKS:
                    out = f"{s}/{kind}.{task}.metrics.json"
                    pred = csv if task == "tracking" else dets
                    argv = ["evaluate", "--task", task, "--gt", scene[0], "--pred", pred, "--format", "json", "--out", out]
                    run(f"{s}/{kind}.{task}", argv, (out,))

        for seed in (1, 2, 3):
            s = f"m{seed}"
            run(f"{s}/synth", ["synth", "--seed", str(seed), "--agents", "3", "--frames", "60", *NOISE, "--out", s])
            Path("gt").mkdir(exist_ok=True)
            Path("pred").mkdir(exist_ok=True)
            shutil.copyfile(f"{s}/annotations.json", f"gt/synth-{seed}.json")
            shutil.copyfile(f"{s}/detections_noisy.json", f"pred/synth-{seed}.json")
            run(f"{s}/track", ["track", f"{s}/detections_noisy.json", "--out", f"pred/synth-{seed}.csv"])
        for workers in ("1", "2"):
            for task in TASKS:
                out = f"multi.{task}.w{workers}.metrics.json"
                argv = ["evaluate", "--task", task, "--gt", "gt", "--pred", "pred", "--workers", workers, "--out", out]
                run(f"multi.{task}.w{workers}", argv, (out,))

        for seed in ("0", "9"):
            run(f"selfcheck-{seed}", ["selfcheck", "--seed", seed, "--format", "json"])

        np.save("clip.npy", np.random.default_rng(0).random((40, 64, 64, 3)))
        run("clip.forward", ["forward", "clip.npy", "--out", "clip.detections.json"], ("clip.detections.json",))
        run("clip.track", ["track", "clip.detections.json", "--out", "clip.csv"], ("clip.csv",))
    finally:
        os.chdir(home)
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(Path(tmp))
    manifest = {"platform": current_platform(), "digests": digests}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
