"""Dataset ingestion, result serialization, and reproducible run manifests.

All writers are deterministic: fixed column orders, shortest-round-trip
float formatting, sorted JSON keys, no timestamps.  Every CLI command drops
a ``<output>.manifest.json`` whose stored argv replays the run byte for
byte.  JSON files are written by ``write_json`` and read by ``read_json``,
which turns a malformed file into a ``ParseError`` naming it.
"""

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import TABLE, Dataset, FeatureMap, Partition, build_pair_index
from .errors import ConfigError, DimensionError, DomainError, ParseError, PmnetError
from .model import ParamBlocks
from .solver import FitResult, PathResult
from .structure import EdgeList, SupportSet

FORMAT_VERSION = 1


def feature_by_name(name: str, categories: int | None = None) -> FeatureMap:
    if name == "product":
        return FeatureMap.product()
    if name in ("sq", "squared_product"):
        return FeatureMap.squared_product()
    if name in ("delta", "kronecker_delta"):
        return FeatureMap.kronecker_delta(categories)
    raise ParseError(f"unknown feature {name!r}; choose product, sq, or delta")


# ---------------------------------------------------------------------------
# partition grammar


def _parse_side(side: str, headers: list[str] | None, m: int) -> list[int]:
    cols = []
    for token in side.split(","):
        token = token.strip()
        if not token:
            raise ParseError("empty token in partition spec")
        if "-" in token and not token.startswith("-"):
            lo_s, _, hi_s = token.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ParseError(f"bad range {token!r} in partition spec") from None
            if not 1 <= lo <= hi <= m:
                raise ParseError(f"range {token!r} outside 1..{m}")
            cols.extend(range(lo - 1, hi))
        elif token.isdigit():
            col = int(token)
            if not 1 <= col <= m:
                raise ParseError(f"column {col} outside 1..{m}")
            cols.append(col - 1)
        else:
            if headers is None:
                raise ParseError(f"named column {token!r} needs a header row")
            try:
                cols.append(headers.index(token))
            except ValueError:
                raise ParseError(f"column name {token!r} not in header") from None
    return cols


def parse_partition_spec(spec: str, m: int, headers: list[str] | None = None) -> Partition:
    """Parse "A-B|C-D" (1-based inclusive ranges) or header-name lists."""
    if spec.count("|") != 1:
        raise ParseError("partition spec must contain exactly one '|'")
    left, right = spec.split("|")
    g1 = _parse_side(left, headers, m)
    g2 = _parse_side(right, headers, m)
    overlap = set(g1) & set(g2)
    if overlap:
        raise ParseError(f"groups overlap on columns {sorted(c + 1 for c in overlap)}")
    if set(g1) | set(g2) != set(range(m)):
        missing = sorted(set(range(m)) - set(g1) - set(g2))
        raise ParseError(f"partition must cover all columns; missing {[c + 1 for c in missing]}")
    return Partition(tuple(g1), tuple(g2))


def partition_spec_string(partition: Partition) -> str:
    """Canonical 1-based spec string for a partition."""

    def _ranges(cols):
        cols = sorted(cols)
        out = []
        start = prev = cols[0]
        for c in cols[1:]:
            if c == prev + 1:
                prev = c
                continue
            out.append((start, prev))
            start = prev = c
        out.append((start, prev))
        return ",".join(f"{a + 1}-{b + 1}" if a != b else f"{a + 1}" for a, b in out)

    return f"{_ranges(partition.group1)}|{_ranges(partition.group2)}"


# ---------------------------------------------------------------------------
# CSV datasets


def _read_table(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and not all(c.strip() == "" for c in r)]
    if not rows:
        raise ParseError(f"{path}: empty file")
    headers = None
    body = rows
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        headers = [c.strip() for c in rows[0]]
        body = rows[1:]
    return headers, body


def load_csv_dataset(path: str, partition_spec: str, categories: int | None = None) -> Dataset:
    """Load a rectangular CSV (optional header) as a partitioned dataset.

    With a category count the values are codes: the dataset is categorical.
    """
    headers, body = _read_table(path)
    if not body:
        raise ParseError(f"{path}: no data rows")
    m = len(body[0])
    values = np.empty((len(body), m))
    offset = 2 if headers is not None else 1
    for i, row in enumerate(body):
        if len(row) != m:
            raise ParseError(f"{path}: line {i + offset}: expected {m} fields, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {i + offset}, column {j + 1}: bad number {cell!r}"
                ) from None
    partition = parse_partition_spec(partition_spec, m, headers)
    return Dataset(values, partition, categories)


def save_csv_dataset(data: Dataset, path: str):
    """Write samples with shortest-round-trip formatting (no header)."""
    with open(path, "w", newline="") as fh:
        for row in data.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# roll-call votes


def build_vote_dataset(votes, member_ids: list[str], party_of: dict) -> tuple[Dataset, list[str]]:
    """Arrange a votes-by-member table into a two-party partitioned dataset.

    ``votes`` is (questions, members) with entries in {1, -1, 0}.  Columns
    are regrouped party-by-party (parties in sorted label order, original
    column order inside a party).  Returns the dataset and the reordered ids.
    """
    votes = np.asarray(votes, dtype=np.float64)
    if votes.ndim != 2 or votes.shape[1] != len(member_ids):
        raise DimensionError("votes must be (questions, members) matching member_ids")
    if len(set(member_ids)) != len(member_ids):
        dupes = sorted({x for x in member_ids if member_ids.count(x) > 1})
        raise ConfigError(f"duplicate member ids {dupes}")
    missing = [x for x in member_ids if x not in party_of]
    if missing:
        raise ConfigError(f"missing party labels for {missing}")
    bad = ~np.isin(votes, (1.0, -1.0, 0.0))
    if bad.any():
        i, j = (int(x) for x in np.argwhere(bad)[0])
        raise DomainError(
            f"vote value {votes[i, j]:g} at question {i + 1}, member {member_ids[j]!r} "
            "is not in {1, -1, 0}"
        )
    parties = sorted({party_of[x] for x in member_ids})
    if len(parties) != 2:
        raise ConfigError(f"need exactly two parties, got {parties}")
    order = [j for j, x in enumerate(member_ids) if party_of[x] == parties[0]]
    order += [j for j, x in enumerate(member_ids) if party_of[x] == parties[1]]
    n_first = sum(1 for x in member_ids if party_of[x] == parties[0])
    partition = Partition(tuple(range(n_first)), tuple(range(n_first, len(member_ids))))
    data = Dataset(votes[:, order], partition)
    return data, [member_ids[j] for j in order]


# ---------------------------------------------------------------------------
# sliding-window sequence pairs


@dataclass(frozen=True)
class SequencePairConfig:
    """Windowing layout for aligning two sequences.

    Each sequence is cut into windows of length ``window`` advanced by
    ``step``; window j becomes one variable and in-window offset i indexes
    sample i, so n = window.  ``alphabet`` is "real" for numeric sequences
    or "coded" for symbol sequences (delta features downstream).
    """

    window: int
    step: int = 1
    alphabet: str = "real"

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("window must be >= 2 (it is the sample count)")
        if self.step < 1:
            raise ConfigError("step must be >= 1")
        if self.alphabet not in ("real", "coded"):
            raise ConfigError("alphabet must be 'real' or 'coded'")


def window_count(length: int, cfg: SequencePairConfig) -> int:
    if length < cfg.window:
        raise ConfigError(f"sequence of length {length} shorter than window {cfg.window}")
    return (length - cfg.window) // cfg.step + 1


def encode_symbols(seq1, seq2) -> tuple[np.ndarray, np.ndarray, dict]:
    """Map two symbol sequences onto shared integer codes (sorted codebook)."""
    codebook = {s: i for i, s in enumerate(sorted(set(seq1) | set(seq2)))}
    a = np.array([codebook[s] for s in seq1], dtype=np.float64)
    b = np.array([codebook[s] for s in seq2], dtype=np.float64)
    return a, b, codebook


def window_sequences(seq1, seq2, cfg: SequencePairConfig) -> Dataset:
    """Build the windows-as-variables dataset for a sequence pair."""
    if cfg.alphabet == "coded":
        s1, s2, codebook = encode_symbols(seq1, seq2)
        categories = len(codebook)
    else:
        s1 = np.asarray(seq1, dtype=np.float64)
        s2 = np.asarray(seq2, dtype=np.float64)
        categories = None
    m1 = window_count(s1.shape[0], cfg)
    m2 = window_count(s2.shape[0], cfg)

    def _columns(s, count):
        return np.column_stack([s[j * cfg.step : j * cfg.step + cfg.window] for j in range(count)])

    x = np.hstack([_columns(s1, m1), _columns(s2, m2)])
    return Dataset(x, Partition(tuple(range(m1)), tuple(range(m1, m1 + m2))), categories)


# ---------------------------------------------------------------------------
# JSON files


def write_json(payload: dict, path: str):
    """The one JSON layout of every output: indent 2, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str, decode):
    """``decode`` applied to the JSON object in ``path``.

    A file that is not a JSON object, or whose payload ``decode`` cannot
    read (a missing key, a value of the wrong type or shape), raises
    ``ParseError`` naming the file; a ``PmnetError`` from ``decode`` is
    raised again as its own class, its message prefixed with the file.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    try:
        return decode(payload)
    except PmnetError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: bad value ({exc})") from None


# ---------------------------------------------------------------------------
# edge exports


def export_edges(edges: EdgeList, fmt: str, path: str, labels: list[str] | None = None):
    """Write an edge list as DOT, JSON, or CSV with a stable row order."""
    if fmt == "json":
        return write_json(_edges_json(edges, labels), path)
    if fmt == "dot":
        text = _edges_dot(edges, labels)
    elif fmt == "csv":
        text = _edges_csv(edges, labels)
    else:
        raise ParseError(f"unknown edge format {fmt!r}; choose dot, json, or csv")
    with open(path, "w") as fh:
        fh.write(text)


def _label(labels, i):
    return labels[i] if labels is not None else str(i)


def _edges_dot(edges: EdgeList, labels) -> str:
    out = io.StringIO()
    out.write("graph edges {\n")
    out.write("  node [shape=ellipse];\n")
    max_w = max((e.weight for e in edges.edges), default=1.0)
    for e in edges.edges:
        color = "red" if e.sign >= 0 else "blue"
        width = 0.5 + 3.5 * (e.weight / max_w if max_w > 0 else 0.0)
        out.write(
            f'  "{_label(labels, e.u)}" -- "{_label(labels, e.v)}" '
            f'[color={color}, penwidth={width:.3f}, weight_value="{e.weight!r}"];\n'
        )
    out.write("}\n")
    return out.getvalue()


def _edges_json(edges: EdgeList, labels) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "scope": edges.scope,
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "u_label": _label(labels, e.u),
                "v_label": _label(labels, e.v),
                "weight": e.weight,
                "sign": e.sign,
            }
            for e in edges.edges
        ],
    }


def _edges_csv(edges: EdgeList, labels) -> str:
    lines = ["u,v,u_label,v_label,weight,sign"]
    for e in edges.edges:
        lines.append(f"{e.u},{e.v},{_label(labels, e.u)},{_label(labels, e.v)},{e.weight!r},{e.sign}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fitted-model and path serialization


def _solver_counters(result: FitResult) -> dict:
    """The fit's deterministic work counters, as written to fit and path JSON."""
    return {
        "iterations": result.iterations,
        "scorings": result.scorings,
        "sweeps": result.sweeps,
        "backtracks": result.backtracks,
        "working_set": result.working_set,
    }


def fit_to_json(
    result: FitResult,
    partition: Partition,
    feature: FeatureMap,
    path: str,
    extras: dict | None = None,
):
    index = result.theta_hat.index
    blocks = []
    for pair in result.theta_hat.nonzero_pairs():
        blocks.append({"u": pair[0], "v": pair[1], "coef": list(result.theta_hat.block(pair))})
    payload = {
        "format_version": FORMAT_VERSION,
        "m": index.m,
        "block_dim": index.block_dim,
        "partition": partition_spec_string(partition),
        "feature": feature.kind,
        "lambda": result.lam,
        "objective": result.objective,
        "converged": result.converged,
        "kkt_max_residual": result.kkt.max_residual,
        "support_size": len(blocks),
        "theta": blocks,
        **_solver_counters(result),
    }
    if feature.kind == TABLE:
        payload["table"] = feature.table.tolist()
    elif feature.categories is not None:  # a delta fit on coded data
        payload["categories"] = feature.categories
    write_json({**payload, **(extras or {})}, path)


def fit_from_json(path: str) -> tuple[ParamBlocks, Partition, FeatureMap, dict]:
    """A fit's coefficients, partition, feature and payload; each pair's
    block holds the feature's block_dim finite coefficients."""

    def decode(payload):
        m = payload["m"]
        partition = parse_partition_spec(payload["partition"], m)
        for key, low in (("categories", 2), ("pair_seed", 0), ("pair_cap", 1)):
            value = payload.get(key)
            if value is not None and (type(value) is not int or value < low):
                raise ParseError(f"{key!r} must be an integer >= {low}, got {value!r}")
        if payload["feature"] == TABLE:
            if "table" not in payload:
                raise ParseError("table fit has no 'table' entry")
            feature = FeatureMap.from_table(payload["table"])
        else:
            feature = feature_by_name(payload["feature"], payload.get("categories"))
        if payload.get("include_diagonal", False) is not False:
            raise ParseError(f"'include_diagonal' must be false, got {payload['include_diagonal']!r}")
        dim = feature.block_dim
        index = build_pair_index(m, block_dim=dim)
        flat = np.zeros(index.dim)
        for entry in payload["theta"]:
            pair, coef = (entry["u"], entry["v"]), np.asarray(entry["coef"], dtype=np.float64)
            if coef.shape != (dim,) or not np.isfinite(coef).all():
                raise ParseError(f"pair {pair} must have {dim} finite coefficient(s), got {entry['coef']!r}")
            flat[index.slice_of(pair)] = coef
        return ParamBlocks(flat, index), partition, feature, payload

    return read_json(path, decode)


def path_to_json(result: PathResult, partition: Partition, feature: FeatureMap, path: str):
    entries = []
    for e in result.entries:
        entries.append(
            {
                "lambda": e.lam,
                "support_size": e.support_size,
                "support": sorted([u, v] for (u, v) in e.fit.theta_hat.nonzero_pairs()),
                "objective": e.fit.objective,
                "converged": e.fit.converged,
                "kkt_max_residual": e.fit.kkt.max_residual,
                **_solver_counters(e.fit),
            }
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "partition": partition_spec_string(partition),
        "feature": feature.kind,
        "stop_reason": result.stop_reason,
        "entries": entries,
    }
    write_json(payload, path)


def truth_to_json(truth: SupportSet, m: int, path: str, extras: dict | None = None):
    payload = {
        "format_version": FORMAT_VERSION,
        "m": m,
        "pairs": sorted([u, v] for (u, v) in truth.active),
    }
    write_json({**payload, **(extras or {})}, path)


def truth_from_json(path: str) -> SupportSet:
    def decode(payload):
        universe = build_pair_index(payload["m"]).pairs
        return SupportSet(frozenset((u, v) for u, v in payload["pairs"]), universe)

    return read_json(path, decode)


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay one CLI invocation byte for byte.

    Paths under the working directory are stored relative to it (see
    ``relative_to_cwd``), so a replay runs from that directory.
    """

    command: str
    argv: list
    seed: int | None
    inputs: dict
    outputs: dict

    def to_payload(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "tool": "pmnet",
            "version": __version__,
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
        }


def relative_to_cwd(arg: str) -> str:
    """An absolute path under the working directory, relative to it.

    ``--flag=path`` arguments have their path part rewritten; every other
    argument is returned unchanged.  Manifests store their paths this way,
    so their bytes do not depend on where a checkout lives, and a replay
    from the same directory finds the same files.
    """
    flag, sep, value = arg.partition("=") if arg.startswith("--") else ("", "", arg)
    if os.path.isabs(value):
        cwd = os.getcwd()
        if os.path.commonpath([cwd, os.path.normpath(value)]) == cwd:
            value = os.path.relpath(value, cwd)
    return flag + sep + value


def write_manifest(manifest: RunManifest, out_path: str):
    """Drop ``<out_path>.manifest.json`` next to the command's main output."""
    write_json(manifest.to_payload(), out_path + ".manifest.json")
