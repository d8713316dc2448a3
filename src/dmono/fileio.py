"""Function files: JSON documents pairing a lattice descriptor with a payload.

Layout: {"lattice": {"cube": n} | {"file": path}, "repr": kind, "payload": ...}
with an optional "meta" object that generators may attach.  Payloads by kind:
dense is a bit string in element-id order; mdnf is a list of element names;
xor is a list of mdnf payloads; composed is {"F": bit string of 2^d, "g":
[mdnf...]}.  Writers emit minimals in canonical order so outputs are
byte-stable.  A relative lattice file path resolves against the function
file's directory, as ``save_function`` writes it, from where the lattice
file was found when loaded; ``dumps_function`` and records keep the path as
loaded, relative to the working directory at load time.  Input files are read
here only: every way a load fails is a ``DmonoError`` that names the file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .boolfn import ComposedTarget, DenseFunction, MonotoneDNF, Representation, XorHypothesis
from .errors import DmonoError, FileFormatError
from .lattice import CubeLattice, ExplicitLattice, Lattice, is_bit_string, parse_lattice


def lattice_descriptor(lattice: Lattice, base_dir: str | Path | None = None) -> dict:
    if isinstance(lattice, CubeLattice):
        return {"cube": lattice.n}
    if isinstance(lattice, ExplicitLattice):
        path = lattice.source_path
        if path is None:
            raise FileFormatError(
                "explicit lattice was built in memory; load it from a file "
                "to make functions over it serializable"
            )
        # as loaded, relative to the working directory, unless rebased from
        # where load_lattice found the file
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.relpath(lattice.resolved_path or path, base_dir)
        return {"file": path}
    raise FileFormatError(f"cannot describe lattice {lattice!r}")


def resolve_lattice(desc, base_dir: str | Path = ".") -> Lattice:
    if not isinstance(desc, dict) or len(desc) != 1:
        raise FileFormatError(f"bad lattice descriptor {desc!r}")
    if "cube" in desc:
        n = desc["cube"]
        if type(n) is not int or n < 1:
            raise FileFormatError(f"bad cube dimension {n!r}")
        return CubeLattice(n)
    if "file" in desc:
        if not isinstance(desc["file"], str):
            raise FileFormatError(f"bad lattice file path {desc['file']!r}")
        path = Path(desc["file"])
        if not path.is_absolute():
            path = Path(base_dir) / path
        return load_lattice(path)
    raise FileFormatError(f"bad lattice descriptor {desc!r}")


def _mdnf_payload(g: MonotoneDNF) -> list[str]:
    return g.lattice.element_names(g.minimals)


def _mdnf_from_payload(lattice: Lattice, payload) -> MonotoneDNF:
    if not isinstance(payload, list):
        raise FileFormatError(f"mdnf payload must be a list, got {payload!r}")
    try:
        elems = tuple(lattice.parse_element(nm) for nm in payload)
        return MonotoneDNF(lattice, elems)
    except (DmonoError, ValueError, TypeError) as exc:
        raise FileFormatError(f"bad mdnf payload: {exc}") from None


def function_to_doc(
    f: Representation, meta: dict | None = None, base_dir: str | Path | None = None
) -> dict:
    doc: dict = {"lattice": lattice_descriptor(f.lattice, base_dir)}
    if isinstance(f, DenseFunction):
        doc["repr"] = "dense"
        doc["payload"] = f.bits()
    elif isinstance(f, MonotoneDNF):
        doc["repr"] = "mdnf"
        doc["payload"] = _mdnf_payload(f)
    elif isinstance(f, XorHypothesis):
        doc["repr"] = "xor"
        doc["payload"] = [_mdnf_payload(lv) for lv in f.levels]
    elif isinstance(f, ComposedTarget):
        doc["repr"] = "composed"
        doc["payload"] = {
            "F": format(f.outer, f"0{1 << f.d}b")[::-1],
            "g": [_mdnf_payload(g) for g in f.inner],
        }
    else:
        raise FileFormatError(f"cannot serialize {f!r}")
    if meta:
        doc["meta"] = meta
    return doc


def doc_to_function(doc, base_dir: str | Path = ".") -> tuple[Representation, dict]:
    if not isinstance(doc, dict):
        raise FileFormatError("function document must be a JSON object")
    for key in ("lattice", "repr", "payload"):
        if key not in doc:
            raise FileFormatError(f"function document is missing {key!r}")
    lattice = resolve_lattice(doc["lattice"], base_dir)
    kind = doc["repr"]
    payload = doc["payload"]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FileFormatError("meta must be a JSON object")
    if kind == "dense":
        if not isinstance(payload, str):
            raise FileFormatError("dense payload must be a bit string")
        try:
            return DenseFunction.from_bits(lattice, payload), meta
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
    if kind == "mdnf":
        return _mdnf_from_payload(lattice, payload), meta
    if kind == "xor":
        if not isinstance(payload, list):
            raise FileFormatError("xor payload must be a list of mdnf payloads")
        levels = tuple(_mdnf_from_payload(lattice, lv) for lv in payload)
        return XorHypothesis(lattice, levels), meta
    if kind == "composed":
        if not isinstance(payload, dict) or set(payload) != {"F", "g"}:
            raise FileFormatError('composed payload must be {"F": bits, "g": [mdnf...]}')
        gs = payload["g"]
        if not isinstance(gs, list) or not gs:
            raise FileFormatError("composed payload needs at least one inner function")
        inner = tuple(_mdnf_from_payload(lattice, g) for g in gs)
        table = payload["F"]
        if not isinstance(table, str) or len(table) != 1 << len(inner) or not is_bit_string(table):
            raise FileFormatError(f"outer table must be a bit string of length {1 << len(inner)}")
        return ComposedTarget(lattice, int(table[::-1], 2), inner), meta
    raise FileFormatError(f"unknown repr kind {kind!r}")


def dumps_function(
    f: Representation, meta: dict | None = None, base_dir: str | Path | None = None
) -> str:
    return json.dumps(function_to_doc(f, meta, base_dir), indent=2) + "\n"


def loads_function(text: str, base_dir: str | Path = ".") -> tuple[Representation, dict]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses out
        raise FileFormatError(f"not valid JSON: {exc}") from None
    return doc_to_function(doc, base_dir)


def save_function(f: Representation, path: str | Path, meta: dict | None = None) -> None:
    """Write f to ``path``, naming a lattice file relative to ``path``'s directory."""
    path = Path(path)
    path.write_text(dumps_function(f, meta, path.parent))


def _read_text(path: Path) -> str:
    # a ValueError is undecodable bytes, or a NUL or lone surrogate in the path
    try:
        return path.read_text()
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None


def load_lattice(path: str | Path) -> ExplicitLattice:
    path = Path(path)
    lat = parse_lattice(_read_text(path), source=str(path))
    lat.resolved_path = os.path.abspath(path)
    return lat


def load_function(path: str | Path) -> tuple[Representation, dict]:
    path = Path(path)
    text = _read_text(path)
    try:
        return loads_function(text, base_dir=path.parent)
    except DmonoError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
