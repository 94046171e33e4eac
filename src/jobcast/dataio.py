"""Dataset ingestion via declarative manifests, plus context filtering.

A manifest is a flat ``key = value`` text file that maps CSV columns onto
roles (scale-out, runtime, named properties), declares property kinds and
units, and names the algorithm. An execution context is identified by the
values of the essential properties; pre-training corpora are derived from a
target context with :func:`filter_for_variant`.

Manifest keys::

    algorithm = sort
    column.scale_out = machine_count
    column.runtime = runtime_s
    unit.runtime = s                  # s | ms | min  (default s)
    property.<name>.role = essential  # essential | optional
    property.<name>.kind = natural    # natural | text
    property.<name>.column = <csv column>
    property.<name>.unit = mb         # naturals only; b|kb|mb|gb|kib|mib|gib

Property order in the schema follows first appearance in the manifest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .encoding import PAYLOAD_BITS, PropertyValue
from .errors import CapacityError, ConfigError, DataError

RUNTIME_UNITS = {"s": 1.0, "ms": 1e-3, "min": 60.0}
SIZE_UNITS = {
    "b": 1, "kb": 10**3, "mb": 10**6, "gb": 10**9,
    "kib": 2**10, "mib": 2**20, "gib": 2**30,
}


@dataclass(frozen=True)
class PropertyMapping:
    name: str
    role: str  # "essential" | "optional"
    kind: str  # "natural" | "text"
    column: str
    unit: int = 1  # multiplier applied to natural values


@dataclass(frozen=True)
class DatasetManifest:
    algorithm: str
    scale_out_column: str
    runtime_column: str
    runtime_unit: float
    properties: tuple[PropertyMapping, ...]

    @property
    def essential(self) -> tuple[PropertyMapping, ...]:
        return tuple(p for p in self.properties if p.role == "essential")

    @property
    def optional(self) -> tuple[PropertyMapping, ...]:
        return tuple(p for p in self.properties if p.role == "optional")


def read_pairs(path, what: str) -> list[tuple[int, str, str]]:
    """The ``(line number, key, value)`` entries of a UTF-8 ``key = value`` file.

    ``#`` starts a comment and blank lines are skipped; keys and values are
    stripped. A file that cannot be read or is not UTF-8 (``what`` names it
    in the message), and a line without ``=``, raise :class:`ConfigError`.
    Duplicate keys are the caller's to judge.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((lineno, key, value))
    return pairs


def parse_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    entries: dict[str, str] = {}
    for lineno, key, value in read_pairs(path, "manifest"):
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    order = list(entries)

    def take(key, default=None):
        if key in entries:
            return entries.pop(key)
        if default is None:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default

    algorithm = take("algorithm")
    scale_out = take("column.scale_out")
    runtime = take("column.runtime")
    unit_name = take("unit.runtime", "s").lower()
    if unit_name not in RUNTIME_UNITS:
        raise ConfigError(f"{path}: unknown runtime unit {unit_name!r}")

    prop_names: list[str] = []
    for key in order:
        if key.startswith("property.") and key in entries:
            parts = key.split(".")
            if len(parts) != 3:
                raise ConfigError(f"{path}: malformed property key {key!r}")
            if parts[1] not in prop_names:
                prop_names.append(parts[1])

    props = []
    for name in prop_names:
        role = entries.pop(f"property.{name}.role", None)
        kind = entries.pop(f"property.{name}.kind", None)
        column = entries.pop(f"property.{name}.column", None)
        unit = entries.pop(f"property.{name}.unit", "b" if kind == "natural" else None)
        if role not in ("essential", "optional"):
            raise ConfigError(f"{path}: property {name!r} needs role essential|optional")
        if kind not in ("natural", "text"):
            raise ConfigError(f"{path}: property {name!r} needs kind natural|text")
        if not column:
            raise ConfigError(f"{path}: property {name!r} needs a column")
        mult = 1
        if kind == "natural":
            if unit.lower() not in SIZE_UNITS:
                raise ConfigError(f"{path}: unknown unit {unit!r} for property {name!r}")
            mult = SIZE_UNITS[unit.lower()]
        elif unit is not None:
            raise ConfigError(f"{path}: text property {name!r} cannot have a unit")
        props.append(PropertyMapping(name, role, kind, column, mult))

    if entries:
        raise ConfigError(f"{path}: unrecognized keys: {sorted(entries)}")
    if not any(p.role == "essential" for p in props):
        raise ConfigError(f"{path}: at least one essential property is required")
    return DatasetManifest(algorithm, scale_out, runtime, RUNTIME_UNITS[unit_name], tuple(props))


def parse_natural(text: str, unit: int = 1) -> int:
    """The natural number ``text`` denotes in ``unit``: scaled, then rounded
    half up (``2.5`` is 3, ``2.4`` is 2).

    One rule for CSV cells, ``--props`` values and ``--target-context``
    values. Raises ValueError for text that is not a finite number, and
    :class:`CapacityError` for a result outside the binary encoder's range.
    """
    try:
        x = float(text) * unit
        n = math.floor(x)  # x - n is exact, so halves are told apart exactly
    except (ValueError, OverflowError):  # not a number, nan or infinite
        raise ValueError("not a finite number") from None
    if x - n >= 0.5:
        n += 1
    if not 0 <= n < 1 << PAYLOAD_BITS:
        raise CapacityError(f"outside [0, 2**{PAYLOAD_BITS} - 1]")
    return n


@dataclass(frozen=True)
class ContextKey:
    """Identity of an execution context: the essential property values."""

    items: tuple[tuple[str, int | str], ...]

    def get(self, name: str):
        for key, value in self.items:
            if key == name:
                return value
        raise KeyError(name)

    def __str__(self):
        return ", ".join(f"{k}={v}" for k, v in self.items)


@dataclass(frozen=True)
class RunRecord:
    """One historical job execution."""

    scale_out: int
    runtime_seconds: float
    properties: dict  # name -> PropertyValue, insertion order = schema order
    context: ContextKey
    algorithm: str = ""

    def __hash__(self):
        return hash((self.scale_out, self.runtime_seconds, self.context))


def _context_of(manifest_props, values: dict) -> ContextKey:
    return ContextKey(tuple(
        (p.name, values[p.name].value) for p in manifest_props if p.role == "essential"
    ))


def load_dataset(csv_path, manifest: DatasetManifest) -> list[RunRecord]:
    """Load one CSV file into records, validating every cell.

    Raises :class:`DataError` naming the row index for unparsable or
    missing cells, non-finite or non-positive runtimes, and natural numbers
    outside the binary encoder's range.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise DataError(f"dataset file not found: {csv_path}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [manifest.scale_out_column, manifest.runtime_column]
        needed += [p.column for p in manifest.essential]
        missing = [c for c in needed if c not in header]
        if missing:
            raise DataError(f"{csv_path}: missing columns {missing}")
        records = []
        for i, row in enumerate(reader):
            records.append(_parse_row(csv_path, manifest, i, row))
    if not records:
        raise DataError(f"{csv_path}: no data rows")
    return records


def _parse_row(csv_path, manifest, i, row) -> RunRecord:
    def fail(msg):
        raise DataError(f"{csv_path} row {i}: {msg}")

    cell = row[manifest.scale_out_column]
    try:
        scale_out = parse_natural(cell)
    except (TypeError, ValueError):  # a short row leaves the cell None
        fail(f"bad scale-out cell {cell!r}")
    except CapacityError as exc:
        fail(f"scale-out cell {cell!r} is {exc}")
    if scale_out < 1:
        fail(f"scale-out must be >= 1, got {scale_out}")
    try:
        runtime = float(row[manifest.runtime_column]) * manifest.runtime_unit
    except (TypeError, ValueError):
        fail(f"bad runtime cell {row[manifest.runtime_column]!r}")
    if not 0 < runtime < math.inf:
        fail(f"runtime must be positive and finite, got {runtime}")

    values = {}
    for p in manifest.properties:
        cell = row.get(p.column)
        if cell is None or (cell.strip() == "" and p.role == "optional"):
            if p.role == "optional":
                continue  # absent optional property
            fail(f"missing cell for essential property {p.name!r}")
        cell = cell.strip()
        if p.kind == "natural":
            try:
                values[p.name] = PropertyValue.natural(parse_natural(cell, p.unit))
            except ValueError:
                fail(f"bad natural cell {cell!r} for property {p.name!r}")
            except CapacityError as exc:
                fail(f"natural cell {cell!r} for property {p.name!r} is {exc}")
        else:
            values[p.name] = PropertyValue.text(cell)
    return RunRecord(
        scale_out=scale_out,
        runtime_seconds=runtime,
        properties=values,
        context=_context_of(manifest.properties, values),
        algorithm=manifest.algorithm,
    )


def write_records_csv(records, path) -> None:
    """Write records in the canonical format (units already normalized).

    The output parses back with :func:`canonical_manifest_from_schema`, and
    doubles as the fine-tuning samples format for the CLI.
    """
    records = list(records)
    if not records:
        raise DataError("nothing to write")
    names: dict[str, None] = {}
    for r in records:
        for n in r.properties:
            names.setdefault(n)
    names = list(names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scale_out", "runtime_seconds"] + names)
        for r in records:
            row = [r.scale_out, repr(r.runtime_seconds)]
            for n in names:
                value = r.properties.get(n)
                row.append("" if value is None else value.value)
            writer.writerow(row)


def canonical_manifest_from_schema(schema, algorithm: str = "") -> DatasetManifest:
    """Canonical-format manifest for a model's property schema."""
    props = [PropertyMapping(name, "essential", kind, name, 1)
             for name, kind in schema.essential]
    props += [PropertyMapping(name, "optional", kind, name, 1)
              for name, kind in schema.optional]
    return DatasetManifest(
        algorithm=algorithm,
        scale_out_column="scale_out",
        runtime_column="runtime_seconds",
        runtime_unit=1.0,
        properties=tuple(props),
    )


@dataclass
class DatasetSummary:
    row_count: int
    context_count: int
    scale_out_grid: dict = field(default_factory=dict)  # context -> sorted scale-outs
    repetitions: dict = field(default_factory=dict)  # context -> reps per scale-out

    def __str__(self):
        lines = [f"{self.row_count} rows across {self.context_count} contexts"]
        for ctx, grid in self.scale_out_grid.items():
            reps = self.repetitions[ctx]
            lines.append(f"  [{ctx}] scale-outs {grid} reps {reps}")
        return "\n".join(lines)


def summarize(records) -> DatasetSummary:
    by_context = group_by_context(records)
    grid = {}
    reps = {}
    for ctx, rs in by_context.items():
        xs = sorted({r.scale_out for r in rs})
        grid[ctx] = xs
        reps[ctx] = {x: sum(1 for r in rs if r.scale_out == x) for x in xs}
    return DatasetSummary(sum(map(len, by_context.values())), len(by_context),
                          grid, reps)


def group_by_context(records) -> dict[ContextKey, list[RunRecord]]:
    out: dict[ContextKey, list[RunRecord]] = {}
    for r in records:
        out.setdefault(r.context, []).append(r)
    return out


def _size_like(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def filter_for_variant(records, target: ContextKey, variant: str) -> list[RunRecord]:
    """Select the pre-training corpus for a target context.

    ``local``    -> no historical data at all.
    ``filtered`` -> only records from maximally different contexts: every
                    categorical essential differs AND every numeric
                    essential differs by at least 20% of the target value.
    ``full``     -> every record of the same algorithm except those from
                    the target context itself.
    """
    if variant == "local":
        return []
    if variant == "full":
        return [r for r in records if r.context != target]
    if variant != "filtered":
        raise ConfigError(f"unknown variant {variant!r}")

    out = []
    for r in records:
        if r.context == target:
            continue
        keep = True
        for name, tval in target.items:
            rval = r.context.get(name)
            if _size_like(tval):
                if tval > 0:
                    rel = abs(rval - tval) / tval
                elif rval == tval:
                    rel = 0.0
                else:
                    rel = float("inf")
                if rel < 0.2:
                    keep = False
                    break
            elif rval == tval:
                keep = False
                break
        if keep:
            out.append(r)
    return out
