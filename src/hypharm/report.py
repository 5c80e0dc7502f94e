"""Machine-readable report schema shared by every subcommand.

A report is a single object {"manifest": ..., "results": [...]}.  The
manifest carries run metadata (parameters, version, seed, timestamps,
wall time, and the `stats` of `search` and of the `eta-band` and
`e11-search` verifies); the results are pure data, so reruns with equal
parameters produce byte-identical result encodings regardless of timing.
Rationals are encoded as "num/den" strings, enclosure endpoints as
"m*2^e" strings, both losslessly, at any size.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .kernel import Enclosure, encode_dyadic, unlimited_digits


@unlimited_digits
def encode_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@unlimited_digits
def decode_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def encode_value(obj, floats: bool = False):
    """Recursively convert result objects to JSON-able data.  A float is exact
    only by accident, so it raises TypeError unless `floats` (manifest timings)."""
    if isinstance(obj, Enclosure):
        return {"lo": encode_dyadic(obj.lo), "hi": encode_dyadic(obj.hi)}
    if isinstance(obj, Fraction):
        return encode_fraction(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if obj is None or isinstance(obj, (int, str)) or (floats and isinstance(obj, float)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: encode_value(getattr(obj, field.name), floats)
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): encode_value(value, floats) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_value(item, floats) for item in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


@dataclass
class RunManifest:
    subcommand: str
    parameters: dict
    version: str
    seed: int | None
    started: str
    finished: str
    wall_time_s: float
    outcome: str
    stats: dict = field(default_factory=dict)


@unlimited_digits
def results_bytes(results) -> bytes:
    """Canonical encoding of the result payload alone (determinism contract)."""
    return json.dumps(encode_value(results), sort_keys=True, separators=(",", ":")).encode()


def render_json(manifest: RunManifest, results) -> str:
    document = {"manifest": encode_value(manifest, True), "results": encode_value(results)}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value, sort_keys=True)
        else:
            flat[name] = value
    return flat


def render_csv(manifest: RunManifest, results) -> str:
    rows = [_flatten(encode_value(record)) for record in results]
    columns = sorted({column for row in rows for column in row})
    out = io.StringIO()
    for key, value in sorted(encode_value(manifest, True).items()):
        if key in ("started", "finished", "wall_time_s"):
            continue
        out.write(f"# {key}={json.dumps(value, sort_keys=True)}\n")
    writer = csv.DictWriter(out, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def render_text(manifest: RunManifest, results) -> str:
    lines = [
        f"{manifest.subcommand}: {manifest.outcome}",
        f"  parameters: {json.dumps(encode_value(manifest.parameters, True), sort_keys=True)}",
        f"  wall time: {manifest.wall_time_s:.3f}s",
    ]
    if manifest.stats:
        lines.append(f"  stats: {json.dumps(encode_value(manifest.stats, True), sort_keys=True)}")
    for record in results:
        lines.append("  " + json.dumps(encode_value(record), sort_keys=True))
    return "\n".join(lines) + "\n"


@unlimited_digits
def render(manifest: RunManifest, results, fmt: str) -> str:
    if fmt == "json":
        return render_json(manifest, results)
    if fmt == "csv":
        return render_csv(manifest, results)
    if fmt == "text":
        return render_text(manifest, results)
    raise ValueError(f"unknown format {fmt!r}")
