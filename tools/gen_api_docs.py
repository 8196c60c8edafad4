"""Generate docs/api.md from the package's docstrings.

Walks every public module of ``repro``, extracts module / class / function
docstring summaries, and emits a navigable Markdown reference.

Run:  python tools/gen_api_docs.py [output_path]
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro


def _summary(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(undocumented)*"
    first_paragraph = doc.split("\n\n")[0].replace("\n", " ")
    return first_paragraph


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.getmodule(obj) is not module:
            continue  # re-exports documented at their home module
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def _signature(obj) -> str:
    if inspect.isclass(obj) and issubclass(obj, enum.Enum):
        # An Enum's call signature comes from its metaclass and changes
        # between Python versions; its members are what a reader needs.
        return "{" + ", ".join(obj.__members__) + "}"
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _iter_modules():
    prefix = repro.__name__ + "."
    yield repro.__name__, repro
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.name.endswith("__main__"):
            continue
        yield info.name, importlib.import_module(info.name)


def _class_methods(cls):
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or isinstance(
            inspect.getattr_static(cls, name, None), (classmethod, staticmethod)
        ):
            if inspect.getdoc(member) and name in cls.__dict__:
                yield name, member


def generate() -> str:
    lines = [
        "# API reference",
        "",
        "*Generated by `python tools/gen_api_docs.py` — edit docstrings,",
        "not this file.*",
        "",
    ]
    for module_name, module in sorted(_iter_modules()):
        members = list(_public_members(module))
        lines.append(f"## `{module_name}`")
        lines.append("")
        lines.append(_summary(module))
        lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "function"
            lines.append(f"### {kind} `{name}{_signature(obj)}`")
            lines.append("")
            lines.append(_summary(obj))
            lines.append("")
            if inspect.isclass(obj):
                for method_name, method in _class_methods(obj):
                    lines.append(
                        f"- **`{method_name}`** — {_summary(method)}"
                    )
                lines.append("")
    return "\n".join(lines)


def main() -> int:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("docs/api.md")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(generate())
    print(f"wrote {output} ({output.stat().st_size / 1024:.0f} KiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
