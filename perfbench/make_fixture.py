"""Train the controller fixture the sweep workloads load.

    python3 perfbench/make_fixture.py

The sweeps must not depend on the training code they are benchmarked next
to, so the model is trained once, stored as ``perfbench/fixture/controller.rcn``
(with a JSON sidecar) and only loaded with ``load_model`` afterwards. A
freshly initialised model would halt on every node and never branch.
Re-run this only when the stored blob can no longer be read.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from refinectl.controller import save_model  # noqa: E402
from refinectl.training import TrainConfig, evaluate_accuracy, train  # noqa: E402

FIXTURE = HERE / "fixture" / "controller.rcn"
SEED = 20_240_601


def main() -> int:
    data = inputs.labeled_set(SEED, 6000, min_len=16, max_len=16_000)
    cfg = TrainConfig(epochs=8, batch_size=32, loss_kind="cross_entropy", rng_seed=SEED)
    model, report = train(data, cfg, n_actions=3)
    check = inputs.labeled_set(SEED + 1, 1500, min_len=16, max_len=16_000)
    feats = np.stack([item.feature.bins for item in check])
    labels = np.array([int(item.label) for item in check])
    held_out = evaluate_accuracy(model, feats, labels)
    print(f"best val acc {report.best_val_accuracy:.4f}, held-out acc {held_out:.4f}")
    FIXTURE.parent.mkdir(exist_ok=True)
    save_model(FIXTURE, model, metadata={
        "trained_by": "perfbench/make_fixture.py",
        "seed": SEED,
        "samples": len(data),
        "epochs": cfg.epochs,
        "best_val_accuracy": report.best_val_accuracy,
        "held_out_accuracy": held_out,
        "normalization": {"mu": list(inputs.NORMALIZATION.mu),
                          "sigma": list(inputs.NORMALIZATION.sigma)},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
