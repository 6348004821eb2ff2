"""Benchmark workloads: the generated config, the set-up stages and the
measured stage sequence of each one, all driven through ``sevcon.cli.main``.

Every workload keeps the shipped image side (32), model sizes and batch
sizes; only image and epoch counts shrink, so that one measured iteration
takes seconds instead of the ~15 min of the full defaults. The workload
seed is written into ``[experiment] seed`` of the generated INI, so the
program only ever sees the config and the corpus it generates from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCORERS = ("severity", "msp", "odin", "mahalanobis")
PROBE_TASKS = ("bio_a", "bio_b", "bio_c", "bio_d", "bio_e", "multilabel")

# Data counts every workload starts from (overrides may change them); the
# healthy split is the shipped default.
DATA = {
    "n_healthy": 600,
    "n_unlabeled": 300,
    "n_labeled_train": 100,
    "n_test_per_biomarker": 60,
    "n_multilabel_test": 200,
}
BINS = (50, 100)           # two rank-and-bin counts; the first is [labeling] n_bins
PRETRAIN_EPOCHS = 2

# Set-up of the workloads that need real severity scores only for the bins.
MINIMAL_GRADCON = {"data": {"n_healthy": 96}, "gradcon": {"epochs": 1}}
SEVERITY_SETUP = [["gen-data"], ["train-gradcon"], ["score", "--scorer", "severity"]]


def _pretrain_compare_stages() -> list[list[str]]:
    stages = []
    for n in BINS:
        stages += [["make-labels", "--bins", str(n)],
                   ["pretrain", "--mode", "severity", "--bins", str(n)]]
    stages += [["pretrain", "--mode", "simclr"], ["pretrain", "--mode", "random"]]
    for tag in pretrain_tags():
        stages += [["probe", "--task", task, "--tag", tag] for task in PROBE_TASKS]
        stages.append(["evaluate", "--tag", tag])
    stages.append(["report"])
    return stages


def pretrain_tags() -> list[str]:
    return [f"severity_b{n}" for n in BINS] + ["simclr", "random"]


@dataclass(frozen=True)
class Workload:
    name: str                  # as in BENCHMARK.json, which gives the reason for each
    overrides: dict            # INI section -> {key: value}, on top of DATA
    setup: list                # stage argv lists run before measuring
    measured: list             # stage argv lists of one measured iteration
    # Set-up runs per benchmark run, each into a fresh run directory;
    # setup_s is their median.
    setup_repeats: int
    # Files deleted before every measured iteration, so each iteration does
    # the same work (the msp stage trains the classifier only when absent).
    reset: tuple = ()
    # Quality floors checked on the severity scores of the workload.
    floors: dict = field(default_factory=dict)
    # Outputs compared byte for byte between an untraced and a traced
    # iteration: tracing must not change the program's results.
    outputs: tuple = ()


WORKLOADS = {w.name: w for w in [
    Workload(
        name="score-pipeline",
        overrides={"gradcon": {"epochs": 1}},
        setup=[["gen-data"]],
        measured=[["train-gradcon"], ["score", "--scorer", "severity"]],
        # gen-data alone takes about 1 s, so its median needs more samples.
        setup_repeats=7,
        # Floors that catch broken numerics: scores that ignore the lesions
        # read about 0.5 and 0. After one epoch a few seeds score below the
        # criterion-4 floors (0.9, 0.6), e.g. seed 3: AUROC 0.78, Spearman
        # 0.41. The machine-read severity_auroc and severity_spearman catch
        # a smaller loss of accuracy against the parent's medians.
        floors={"severity_auroc": 0.65, "severity_spearman": 0.25},
        outputs=("scores/severity.csv", "gradcon/training_log.csv"),
    ),
    Workload(
        name="pretrain-compare",
        overrides=MINIMAL_GRADCON,
        setup=SEVERITY_SETUP,
        measured=_pretrain_compare_stages(),
        setup_repeats=3,
        outputs=tuple(f"probe/result_{t}.json" for t in pretrain_tags())
        + ("report/table1.csv",),
    ),
    Workload(
        name="ablation",
        overrides=MINIMAL_GRADCON,
        setup=SEVERITY_SETUP,
        measured=[["score", "--scorer", s] for s in SCORERS[1:]]
        + [["ablate", "--bins", str(BINS[0])]],
        setup_repeats=3,
        reset=("baselines/classifier.npz",),
        outputs=tuple(f"scores/{s}.csv" for s in SCORERS[1:]) + ("report/ablation.csv",),
    ),
]}


def config_sections(workload: Workload, seed: int) -> dict:
    """Every INI section and key the workload sets, seed included."""
    sections = {
        "experiment": {"seed": seed},
        "data": dict(DATA),
        "labeling": {"n_bins": BINS[0], "report_bins": ",".join(map(str, BINS))},
        "contrastive": {"epochs": PRETRAIN_EPOCHS},
    }
    for name, values in workload.overrides.items():
        sections.setdefault(name, {}).update(values)
    return sections


def config_ini(workload: Workload, seed: int) -> str:
    lines = []
    for name, values in config_sections(workload, seed).items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def gradcon_epochs(workload: Workload) -> int:
    return int(config_sections(workload, 0)["gradcon"]["epochs"])


def gradcon_train_images(workload: Workload) -> int:
    """Images per gradcon epoch: the CLI holds out min(64, n_healthy // 4)."""
    n_healthy = config_sections(workload, 0)["data"]["n_healthy"]
    return n_healthy - min(64, n_healthy // 4)
