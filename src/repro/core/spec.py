"""A tiny YAML-subset parser for LabStack / Runtime specification files.

The paper defines LabStacks and the Runtime configuration in YAML.  To
stay dependency-free, this module implements the (small) subset those
files need: nested mappings, block lists of scalars or mappings, scalar
typing (int / float / bool / null / quoted or bare strings), and ``#``
comments.  Indentation must be consistent spaces (no tabs).

This is not a general YAML implementation — anchors, flow style beyond
inline ``[]``/``{}`` on scalars, and multi-line strings are rejected.
"""

from __future__ import annotations

from typing import Any

from ..errors import LabStorError

__all__ = ["parse_spec", "SpecParseError"]


class SpecParseError(LabStorError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text in ("null", "~", ""):
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    if text == "{}":
        return {}
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [] if not inner else [_parse_scalar(p) for p in inner.split(",")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _is_mapping_line(content: str) -> bool:
    """YAML mapping keys require ': ' or a line-ending ':' — a bare colon
    inside a scalar like ``fs::/b`` does not start a mapping."""
    return ": " in content or content.endswith(":")


class _Line:
    __slots__ = ("indent", "content", "lineno")

    def __init__(self, indent: int, content: str, lineno: int) -> None:
        self.indent = indent
        self.content = content
        self.lineno = lineno


def _scan(text: str) -> list[_Line]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise SpecParseError(lineno, "tabs are not allowed in indentation")
        if raw.lstrip().startswith("#"):
            continue
        # a comment starts at ' #' (YAML requires whitespace before '#')
        stripped = raw.split(" #", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        lines.append(_Line(indent, stripped.strip(), lineno))
    return lines


def _parse_block(lines: list[_Line], pos: int, indent: int) -> tuple[Any, int]:
    """Parse the block starting at lines[pos] with exactly ``indent``."""
    if pos >= len(lines):
        return None, pos
    if lines[pos].content.startswith("- ") or lines[pos].content == "-":
        return _parse_list(lines, pos, indent)
    return _parse_map(lines, pos, indent)


def _parse_map(lines: list[_Line], pos: int, indent: int) -> tuple[dict, int]:
    result: dict[str, Any] = {}
    while pos < len(lines) and lines[pos].indent == indent:
        line = lines[pos]
        if line.content.startswith("- ") or line.content == "-":
            break
        if not _is_mapping_line(line.content):
            raise SpecParseError(line.lineno, f"expected 'key: value', got {line.content!r}")
        key, _, rest = line.content.partition(":")
        key = key.strip()
        rest = rest.strip()
        if rest:
            result[key] = _parse_scalar(rest)
            pos += 1
        else:
            pos += 1
            if pos < len(lines) and lines[pos].indent > indent:
                value, pos = _parse_block(lines, pos, lines[pos].indent)
                result[key] = value
            else:
                result[key] = None
    if pos < len(lines) and lines[pos].indent > indent:
        raise SpecParseError(lines[pos].lineno, "unexpected indentation")
    return result, pos


def _parse_list(lines: list[_Line], pos: int, indent: int) -> tuple[list, int]:
    result: list[Any] = []
    while (
        pos < len(lines)
        and lines[pos].indent == indent
        and (lines[pos].content.startswith("- ") or lines[pos].content == "-")
    ):
        line = lines[pos]
        item_text = line.content[2:].strip() if line.content != "-" else ""
        if not item_text:
            pos += 1
            if pos < len(lines) and lines[pos].indent > indent:
                value, pos = _parse_block(lines, pos, lines[pos].indent)
                result.append(value)
            else:
                result.append(None)
        elif _is_mapping_line(item_text) and not item_text.startswith(('"', "'")):
            # inline start of a mapping item: "- key: value"
            key, _, rest = item_text.partition(":")
            item: dict[str, Any] = {}
            if rest.strip():
                item[key.strip()] = _parse_scalar(rest)
            else:
                item[key.strip()] = None
            pos += 1
            # continuation keys are indented deeper than the dash
            if pos < len(lines) and lines[pos].indent > indent:
                more, pos = _parse_map(lines, pos, lines[pos].indent)
                item.update(more)
            result.append(item)
        else:
            result.append(_parse_scalar(item_text))
            pos += 1
    return result, pos


def parse_spec(text: str) -> Any:
    """Parse a YAML-subset document into dicts/lists/scalars."""
    lines = _scan(text)
    if not lines:
        return {}
    value, pos = _parse_block(lines, 0, lines[0].indent)
    if pos != len(lines):
        raise SpecParseError(lines[pos].lineno, "trailing content outside the root block")
    return value
