"""Spans around pmnet's public entry points, recorded from outside the package.

The benchmark wraps each entry point where its caller looks it up (pmnet
modules import by name, so ``solver.fit`` and ``cli.fit`` are separate
lookups of one function).  A span is ``[name, start, end, parent, payload]``;
spans stay in memory and are written out once, when the run ends.  Layers are
the pmnet modules, and a span's layer is the prefix of its name.
"""

import functools
import inspect
import json
import os
import time

from pmnet import _kernels, cli, core, model, solver, structure, synth

LAYERS = ("synth", "core", "model", "solver", "structure", "pipelines", "cli")


def _nbytes(args, kwargs, result):
    return int(result.shape[0]) * int(result.shape[1]) * result.itemsize


def _pairs_used(args, kwargs, result):
    return int(args[0].n_pairs_used)


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _written_path(fn):
    """Payload for a writer: bytes of the file it was asked to write."""
    sig = inspect.signature(fn)

    def payload(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        if "out_path" in bound:  # write_manifest writes next to its output
            target = bound["out_path"] + ".manifest.json"
        else:
            target = bound["path"]
        try:
            return os.path.getsize(target)
        except OSError:
            return 0

    return payload


_READERS = ("load_csv_dataset", "truth_from_json", "fit_from_json")
_WRITERS = ("save_csv_dataset", "path_to_json", "fit_to_json", "truth_to_json",
            "write_manifest", "export_edges")

# (owner, attribute, span name, payload) for every patched lookup.  A missing
# attribute is an error: a change that removes or renames an entry point
# updates this list, so no layer's metrics silently read zero.
TARGETS = [
    (model.ModelTerms, "__init__", "model.terms_build", _pairs_used),
    (model.ModelTerms, "value", "model.value", None),
    (model.ModelTerms, "value_grad", "model.value_grad", None),
    (model, "pair_feature_matrix", "core.feature_build", _nbytes),
    (core, "pair_feature_matrix", "core.feature_build", _nbytes),
    (model, "permuted_matrix", "core.permute", None),
    (solver, "lambda_path", "solver.path", None),
    (cli, "lambda_path", "solver.path", None),
    (solver, "fit", "solver.fit", _iterations),
    (cli, "fit", "solver.fit", _iterations),
    (solver, "lambda_max", "solver.lambda_max", None),
    (solver, "kkt_residuals", "solver.kkt", None),
    (_kernels, "group_soft_threshold", "solver.prox", None),
    (synth, "sample_gaussian", "synth.sample", None),
    (synth, "sample_diamond", "synth.sample", None),
    (cli, "sample_gaussian", "synth.sample", None),
    (cli, "sample_diamond", "synth.sample", None),
    (structure, "roc_curve", "structure.roc", None),
    (cli, "envelope_and_auc", "structure.roc", None),
]
TARGETS += [(cli, name, "pipelines.io", None) for name in _READERS]
TARGETS += [(cli, name, "pipelines.write", "writer") for name in _WRITERS]


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, payload):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            span = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if payload is not None:
                span[4] = payload(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for owner, attr, name, payload in TARGETS:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.uninstall()
                raise AttributeError(f"trace target {owner.__name__}.{attr} does not exist")
            if payload == "writer":
                payload = _written_path(fn)
            key = (id(fn), name)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, name, payload)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[key])
        # the benchmark calls cli.main itself; one span per command
        self._saved.append((cli, "main", cli.main))
        cli.main = self._wrap(cli.main, lambda args: "cli." + args[0][0], None)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, payload in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "payload": payload}) + "\n")


def unit_totals(spans, lo: int, hi: int) -> dict:
    """Additive per-layer totals over spans[lo:hi]: seconds, calls, payloads.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums the self time of its spans.
    """
    total, calls, payload = {}, {}, {}
    child_time = [0.0] * (hi - lo)
    for name, start, end, parent, pay in spans[lo:hi]:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        payload[name] = payload.get(name, 0) + (pay or 0)
        if parent >= lo:
            child_time[parent - lo] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, _), inner in zip(spans[lo:hi], child_time):
        self_s[name.split(".")[0]] += end - start - inner

    def t(key):
        return total.get(key, 0.0)

    def c(key):
        return calls.get(key, 0)

    out = {
        "synth.sample_s": t("synth.sample"),
        "core.feature_build_s": t("core.feature_build"),
        "core.feature_build_calls": c("core.feature_build"),
        "core.permute_s": t("core.permute"),
        "core.feature_bytes": payload.get("core.feature_build", 0),
        "model.terms_build_s": t("model.terms_build"),
        "model.terms_builds": c("model.terms_build"),
        "model.pairs_used": payload.get("model.terms_build", 0),
        "model.value_calls": c("model.value"),
        "model.value_s": t("model.value"),
        "model.value_grad_calls": c("model.value_grad"),
        "model.value_grad_s": t("model.value_grad"),
        "solver.fit_calls": c("solver.fit"),
        "solver.fit_s": t("solver.fit"),
        "solver.iterations": payload.get("solver.fit", 0),
        "solver.kkt_calls": c("solver.kkt"),
        "solver.kkt_s": t("solver.kkt"),
        "solver.prox_calls": c("solver.prox"),
        "solver.prox_s": t("solver.prox"),
        "solver.lambda_max_s": t("solver.lambda_max"),
        "structure.roc_s": t("structure.roc"),
        "pipelines.io_s": t("pipelines.io") + t("pipelines.write"),
        "pipelines.io_calls": c("pipelines.io") + c("pipelines.write"),
        "pipelines.bytes_written": payload.get("pipelines.write", 0),
        "cli.gen_s": t("cli.gen"),
        "cli.path_s": t("cli.path"),
        "cli.roc_s": t("cli.roc"),
        "cli.align_s": t("cli.align"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    return out


def with_ratios(totals: dict) -> dict:
    """Add the per-evaluation time and evaluations per solver iteration."""
    out = dict(totals)
    evals = totals["model.value_calls"] + totals["model.value_grad_calls"]
    eval_s = totals["model.value_s"] + totals["model.value_grad_s"]
    out["model.eval_ms"] = 1e3 * eval_s / evals if evals else 0.0
    iterations = totals["solver.iterations"]
    out["solver.evals_per_iter"] = evals / iterations if iterations else 0.0
    return out


# Counts that must repeat exactly for fixed code and inputs.
DETERMINISTIC = (
    "core.feature_build_calls", "core.feature_bytes", "model.terms_builds",
    "model.pairs_used", "model.value_calls", "model.value_grad_calls",
    "solver.fit_calls", "solver.iterations", "solver.kkt_calls",
    "solver.prox_calls", "pipelines.io_calls", "pipelines.bytes_written",
)
