"""Indented JSON text from CPython's C encoder, in bounded chunks.

``json.dump(obj, fh, indent=2, sort_keys=True, cls=IndentedEncoder)`` writes
the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.  With ``indent``
set, the stdlib runs its pure-Python encoder, one call per token.  Here a
container whose values are all scalars is encoded by one call to the C
encoder, whose item separator carries the newline and indent of the
container's depth; only containers that hold containers are walked in Python.

The text comes out in chunks of about ``CHUNK`` characters, never as one
string (a single container of scalars is one piece, whatever its size).  An
object with a ``to_json`` method is converted when the walk reaches it, so
the JSON forms of such objects need not all exist at once.  With sorted keys
and the default separators, an object with a ``json_chunks(indent, depth)``
method writes itself instead: it yields, in pieces, the text that
``to_json`` would give at that depth, and each piece counts towards a chunk.

Differences from the stdlib: the keys of a dict that holds containers must
be ``str``, and reference cycles are not detected.
"""
from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii

CHUNK = 1 << 16

_SCALARS = (str, int, float)            # bool is an int; None is tested apart
# exact types of scalars, for the quick test of a whole container; a
# subclass instance sends its container down the Python walk, which
# encodes it like the stdlib does
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


class IndentedEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` that makes indented text mostly in C."""

    def default(self, o):
        to_json = getattr(o, "to_json", None)
        if to_json is None:
            return super().default(o)
        return to_json()

    def iterencode(self, o, _one_shot=False):
        if self.indent is None or c_make_encoder is None:
            return super().iterencode(o, _one_shot)
        return self._chunks(o)

    def _chunks(self, o):
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        string = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        key_sep, item_sep = self.key_separator, self.item_separator
        # json_chunks writes sorted keys with the default separators, in ASCII
        own_text = (self.sort_keys and self.ensure_ascii
                    and (item_sep, key_sep) == (",", ": "))
        levels = []     # levels[d]: (inner newline, outer newline, C encoder) at depth d
        parts = []
        size = 0

        def level(depth):
            while len(levels) <= depth:
                outer = "\n" + indent * len(levels)
                encoder = c_make_encoder(
                    None, self.default, string, None, key_sep, item_sep + outer + indent,
                    self.sort_keys, self.skipkeys, self.allow_nan)
                levels.append((outer + indent, outer, encoder))
            return levels[depth]

        def leaf(o, depth):
            """Text of a scalar or of a container of scalars; None otherwise.

            ``levels[depth]`` must exist."""
            if o is None or isinstance(o, _SCALARS):
                return "".join(levels[0][2](o, 0))
            if isinstance(o, dict):
                values, empty = o.values(), "{}"
            elif isinstance(o, (list, tuple)):
                values, empty = o, "[]"
            else:
                return None
            if not o:
                return empty
            if not _SCALAR_TYPES.issuperset(map(type, values)):
                return None
            inner, outer, encoder = levels[depth]
            text = "".join(encoder(o, 0))
            return text[0] + inner + text[1:-1] + outer + text[-1]

        def node(o, depth):
            nonlocal size
            level(depth)
            text = leaf(o, depth)
            if text is None:
                yield from walk(o, depth)
            else:
                parts.append(text)
                size += len(text)

        def walk(o, depth):
            """Yield full chunks of a nested container or a to_json object."""
            nonlocal size
            if isinstance(o, dict):
                items = sorted(o.items()) if self.sort_keys else o.items()
                entries = ((string(key) + key_sep, value) for key, value in items)
                brackets = "{}"
            elif isinstance(o, (list, tuple)):
                entries = (("", value) for value in o)
                brackets = "[]"
            else:
                own = getattr(o, "json_chunks", None) if own_text else None
                if own is None:
                    yield from node(self.default(o), depth)
                    return
                for text in own(indent, depth):
                    parts.append(text)
                    size += len(text)
                    if size >= CHUNK:
                        yield "".join(parts)
                        parts.clear()
                        size = 0
                return
            inner, outer, _ = level(depth)
            level(depth + 1)
            sep, between = brackets[0] + inner, item_sep + inner
            for prefix, value in entries:
                parts.append(sep + prefix)
                size += len(sep) + len(prefix)
                sep = between
                text = leaf(value, depth + 1)
                if text is None:
                    yield from walk(value, depth + 1)
                else:
                    parts.append(text)
                    size += len(text)
                if size >= CHUNK:
                    yield "".join(parts)
                    parts.clear()
                    size = 0
            parts.append(outer + brackets[1])

        yield from node(o, 0)
        yield "".join(parts)
