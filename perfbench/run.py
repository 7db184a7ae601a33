"""mogref benchmark: closed-loop training workloads, timed from outside the package.

One workload per process, because ``ru_maxrss`` is a per-process high-water
mark:

    python3 perfbench/run.py --workload train-n74 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, including
the spans of a traced run, go to ``perfbench/out/``. ``--suite`` runs every
workload traced and untraced, each in a fresh process, and checks that both
runs of a workload logged the same losses.

The program is imported from ``src/`` of the checkout this file sits in and
is used as ``mogref train`` uses it: garbage collector and BLAS threads at
their defaults, nothing under ``src/`` modified. See perfbench/README.md for
what each metric means and which change should move it.
"""

import time

_T_START = time.perf_counter()  # set-up is timed from here, before numpy or mogref is imported

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from probes import GcProbe, environment, graph_size, host_calib_ms
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# The `mogref train` defaults: 16 synthetic scenes, Adam at lr 1e-3, an
# evaluate_model call every 20 steps.
SCENES = 16
LR = 1e-3
EVAL_EVERY = 20
SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_STEPS = 200  # p95 needs ten steps beyond it
PREFIX_STEPS = 20  # steps replayed through train_toy, one eval included
ORACLE_CASE = "scs_end_to_end"
ORACLE_MAX_PARAM_SIZE = 8  # finite differences on the oracle case's small parameters only


@dataclass(frozen=True)
class Workload:
    image_size: int
    batch_size: int
    steps_per_s: float  # nominal rate on a 2-core host; sizes the window from --seconds

    def steps(self, seconds: int) -> int:
        """A fixed step count, whole eval periods, so every count repeats exactly."""
        wanted = max(MIN_STEPS, round(seconds * self.steps_per_s))
        return -(-wanted // EVAL_EVERY) * EVAL_EVERY


WORKLOADS = {
    # 64 patches + 10 words: per-node overhead, Hungarian loss and GC dominate
    "train-n74": Workload(image_size=64, batch_size=8, steps_per_s=9.0),
    # 256 patches + 10 words: the G*B*H*N^2 masked-softmax buffers dominate;
    # B=2 because B=8 needs 6.3 GB
    "longseq-n266": Workload(image_size=128, batch_size=2, steps_per_s=5.0),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_program() -> SimpleNamespace:
    """Import mogref from the checkout's ``src/``; stop if it is not there."""
    src = ROOT / "src"
    if not (src / "mogref" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mogref sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    from mogref import data, gradcheck, gradcheck_cases, matching, model, rng, tensor, train

    return SimpleNamespace(data=data, gradcheck=gradcheck, gradcheck_cases=gradcheck_cases,
                           matching=matching, model=model, rng=rng, tensor=tensor, train=train)


def make_optimizer(mg, net):
    """Adam over the same two parameter groups, in the same order, as ``train_toy``."""
    projector = mg.train.ParamGroup(net.projector.parameters(), LR)
    in_projector = {id(p) for p in projector.params}
    rest = mg.train.ParamGroup([p for p in net.parameters() if id(p) not in in_projector], LR)
    return mg.train.Adam([projector, rest])


def warm_up(mg, net, dataset, batch_size, weights) -> None:
    """Fill the mask and position caches; no optimizer step, so parameters keep their seeded values."""
    idx = list(range(batch_size))
    pred = net.forward(dataset.images[idx], dataset.token_ids[idx])
    loss, _ = mg.matching.grounding_loss(pred.boxes, pred.confidence,
                                         [dataset.targets[i] for i in idx], weights)
    mg.tensor.backward(loss)


def oracle_probe(mg, seed: int) -> tuple[int, float, bool]:
    """Graph size of one oracle forward, and finite differences on its small parameters.

    Returns the node count, the ms per finite-difference coordinate (two
    recorded forwards each) and whether every checked gradient is within the
    oracle's tolerance.
    """
    build_loss, params = dict(mg.gradcheck_cases.all_cases(seed))[ORACLE_CASE]()
    loss = build_loss()
    nodes, _ = graph_size(loss)
    mg.tensor.zero_grads(params)
    mg.tensor.backward(loss)
    small = [p for p in params if p.size <= ORACLE_MAX_PARAM_SIZE]
    start = time.perf_counter()
    worst = max(mg.gradcheck.max_rel_err(
        p.grad, mg.gradcheck.finite_difference_grad(lambda _p: build_loss(), p)) for p in small)
    fd_ms = (time.perf_counter() - start) * 1e3 / sum(p.size for p in small)
    return nodes, fd_ms, worst <= mg.gradcheck.DEFAULT_TOL


def run_workload(mg, name: str, seed: int, seconds: int, trace: bool, import_s: float) -> dict:
    wl = WORKLOADS[name]
    batch = wl.batch_size
    steps = wl.steps(seconds)
    vocab = mg.data.default_vocab()
    spec = mg.data.SyntheticSceneSpec(image_size=wl.image_size)
    config = mg.model.ModelConfig(image_size=wl.image_size, vocab_size=len(vocab))
    weights = mg.matching.LossWeights()

    generate_s, init_s, setup_s = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        dataset = mg.train.build_synthetic_dataset(SCENES, spec, vocab, seed)
        t1 = time.perf_counter()
        net = mg.model.SCSModel(config, vocab, mg.rng.RngState(seed))
        t2 = time.perf_counter()
        warm_up(mg, net, dataset, batch, weights)
        t3 = time.perf_counter()
        generate_s.append(t1 - t0)
        init_s.append(t2 - t1)
        setup_s.append(t3 - t0)
    opt = make_optimizer(mg, net)
    calib_start = host_calib_ms()

    tracer = Tracer(mg) if trace else None
    probe = GcProbe()
    gc.callbacks.append(probe)
    images, token_ids, targets = dataset.images, dataset.token_ids, dataset.targets
    log, step_s, traced, eval_s, nodes, graph_bytes = [], [], [], [], [], []
    attempted = failed = 0
    cursor = 0
    probe.active = True
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for step in range(1, steps + 1):
        idx = [(cursor + i) % SCENES for i in range(batch)]
        cursor = (cursor + batch) % SCENES
        # a traced run alternates traced and untraced steps: the difference
        # of their medians is the tracing overhead
        is_traced = tracer is not None and step % 2 == 1
        if is_traced:
            tracer.install(step)
        t0 = time.perf_counter()
        pred = net.forward(images[idx], token_ids[idx])
        loss, _ = mg.matching.grounding_loss(pred.boxes, pred.confidence,
                                             [targets[i] for i in idx], weights)
        loss_value = loss.item()
        t1 = time.perf_counter()
        n, nb = graph_size(loss)  # outside the timed region
        t2 = time.perf_counter()
        opt.zero_grad()
        mg.tensor.backward(loss)
        opt.step()
        t3 = time.perf_counter()
        if is_traced:
            tracer.uninstall()
        step_s.append((t1 - t0) + (t3 - t2))
        traced.append(is_traced)
        nodes.append(n)
        graph_bytes.append(nb)
        attempted += 1
        failed += not math.isfinite(loss_value)

        entry = {"step": step, "loss": loss_value, "train_p50": None}
        if step % EVAL_EVERY == 0:
            t0 = time.perf_counter()
            p50 = mg.train.evaluate_model(net, dataset, thetas=(0.5,)).precisions[0.5]
            eval_s.append(time.perf_counter() - t0)
            entry["train_p50"] = p50
            attempted += 1
            failed += not 0.0 <= p50 <= 1.0
        log.append(entry)
    window_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    probe.active = False
    calib_end = host_calib_ms()

    # train_toy on a fresh model must log the same losses and P@0.5, bit for
    # bit, so this loop cannot drift from what `mogref train` runs
    reference = mg.train.train_toy(
        mg.model.SCSModel(config, vocab, mg.rng.RngState(seed)), dataset,
        mg.train.TrainConfig(steps=PREFIX_STEPS, lr=LR, batch_size=batch,
                             eval_every=EVAL_EVERY, target_train_p50=None)).log
    prefix_ok = reference == log[:PREFIX_STEPS]
    fd_nodes, fd_ms, oracle_ok = oracle_probe(mg, seed)
    attempted += 2
    failed += (not prefix_ok) + (not oracle_ok)
    gc.callbacks.remove(probe)

    step_ms = [s * 1e3 for s in step_s]
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_s),
        "train_samples_per_s": batch * steps / sum(step_s),
        "train_step_ms.p50": statistics.median(step_ms),
        "train_step_ms.p95": statistics.quantiles(step_ms, n=100)[94],
        "eval_scenes_per_s": SCENES * len(eval_s) / sum(eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = {
        "data.generate_ms": statistics.median(generate_s) * 1e3,
        "model.init_ms": statistics.median(init_s) * 1e3,
        "tensor.nodes_per_step": statistics.mean(nodes),
        "tensor.graph_mb_per_step": statistics.mean(graph_bytes) / 2**20,
        "tensor.nodes_per_fd_forward": fd_nodes,
        "train.eval_ms": statistics.median(eval_s) * 1e3,
        "gradcheck.fd_ms": fd_ms,
        "gc.pause_share": sum(probe.pause_s) / window_s,
        "proc.cpu_per_wall": cpu_s / window_s,
        "host.calib_ms": (calib_start + calib_end) / 2,
    }
    for gen in range(3):
        per_layer[f"gc.collections.gen{gen}"] = probe.counts[gen]
        per_layer[f"gc.pause_ms.gen{gen}"] = probe.pause_s[gen] * 1e3
    details = {}
    if tracer is not None:
        roots = [step for step, was_traced in zip(range(1, steps + 1), traced) if was_traced]
        total, own = tracer.per_root_ms()
        for span, ms in Tracer.median_by_name(total, roots).items():
            per_layer[f"{span}_ms"] = ms
        on = statistics.median(ms for ms, t in zip(step_ms, traced) if t)
        off = statistics.median(ms for ms, t in zip(step_ms, traced) if not t)
        per_layer["tracing.overhead_pct"] = (on / off - 1.0) * 100.0
        details = {"self_ms_per_step": Tracer.median_by_name(own, roots),
                   "spans": tracer.spans}

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "steps": steps, "batch_size": batch, "window_s": window_s,
        "environment": environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "checks": {"train_toy_prefix": prefix_ok, "oracle_gradients": oracle_ok},
        "loss_digest": hashlib.sha256(json.dumps(log).encode()).hexdigest(),
        "host_calib_ms": {"start": calib_start, "end": calib_end},
        "end_to_end": end_to_end, "per_layer": per_layer,
        "step_ms": step_ms, "eval_ms": [s * 1e3 for s in eval_s], **details,
    }


def report(result: dict, spec: dict) -> dict:
    """Print the declared metrics of this mode, by name and unit; return the result line."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    measured = result["per_layer"] if result["trace"] else result["end_to_end"]
    missing = sorted({m["name"] for m in declared} ^ set(measured))
    if missing:
        raise RuntimeError(f"metrics measured and declared in BENCHMARK.json differ: {missing}")
    metrics = {}
    for m in declared:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:28s} {value:14.6g} {m['unit']}")
    if result["trace"]:
        print("self ms per traced step: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(result["self_ms_per_step"].items())))
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# checks {json.dumps(result['checks'], sort_keys=True)} "
          f"loss_digest {result['loss_digest']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_suite(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"]
            summary[f"{name}/trace{trace}"] = line
            with open(OUT_DIR / f"{name}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
                digests.append(json.load(fh)["loss_digest"])
        same = len(digests) == 2 and digests[0] == digests[1]
        print(f"== {name}: traced and untraced losses {'identical' if same else 'DIFFER'}")
        ok = ok and same
    with open(OUT_DIR / f"suite-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"ok": ok, "runs": summary}, fh, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true", help="run every workload, both modes")
    args = parser.parse_args(argv)
    if args.suite == (args.workload is not None):
        parser.error("give exactly one of --workload and --suite")
    OUT_DIR.mkdir(exist_ok=True)
    if args.suite:
        return run_suite(args.seed, args.seconds)

    mg = load_program()
    import_s = time.perf_counter() - _T_START
    result = run_workload(mg, args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(report(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
