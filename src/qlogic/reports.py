"""Machine-readable report documents emitted by the command-line interface."""

from __future__ import annotations

import json
from itertools import islice

from . import __version__

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "input_digest", "version", "seed", "results"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "input_digest": {"type": ["string", "null"]},
        "version": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "results": {"type": "object"},
    },
}


# Input files larger than this are refused unread; the largest catalog
# algebra, a 64-element carrier, is about 44 KB of indented JSON.
MAX_INPUT_BYTES = 1 << 22


def digest_file(path: str) -> tuple[str, bytes]:
    """The SHA-256 hex digest of the file and the bytes it was taken from.

    Reads at most MAX_INPUT_BYTES + 1 bytes, so an endless input ends the
    read too; ValueError if the file is larger than MAX_INPUT_BYTES.

    The hash is CPython's built-in SHA-256 (`_sha2` on 3.12+, `_sha256`
    before), which gives hashlib's digest without loading OpenSSL's
    libcrypto: that library is about 3.5 MB resident, more than a command
    needs above the bare interpreter. hashlib is the fallback on a build
    without the built-in hashes. Nothing is imported until a file is read.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    with open(path, "rb") as handle:
        data = handle.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"input is larger than {MAX_INPUT_BYTES} bytes")
    return sha256(data).hexdigest(), data


def make_report(
    command: str,
    input_digest: str | None = None,
    seed: int | None = None,
    results: dict | None = None,
) -> dict:
    return {
        "command": command,
        "input_digest": input_digest,
        "version": __version__,
        "seed": seed,
        "results": results or {},
    }


def render_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        entries = [(f"{key}:", value) for key, value in doc.items()]
    elif isinstance(doc, list):
        entries = [("-", value) for value in doc]
    else:
        return f"{pad}{_scalar(doc)}"
    return "\n".join(
        f"{pad}{head}\n{render_text(value, indent + 1)}"
        if isinstance(value, (dict, list)) and value
        else f"{pad}{head} {_scalar(value)}"
        for head, value in entries
    )


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


# json's encoder yields a piece per key, value and separator, and each write
# to a write-through stdout (PYTHONUNBUFFERED=1) is a system call, so the
# pieces are joined and written EMIT_BATCH at a time
EMIT_BATCH = 1024


def emit(doc: dict, fmt: str, out) -> None:
    """Write the report and a newline to the text stream out.

    JSON is the text of json.dumps(doc, indent=2), encoded piece by piece
    as it is written, so the whole text is never held in memory at once.
    """
    if fmt != "json":
        out.write(render_text(doc) + "\n")
        return
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := list(islice(pieces, EMIT_BATCH)):
        out.write("".join(batch))
    out.write("\n")
