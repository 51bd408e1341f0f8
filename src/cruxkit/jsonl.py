"""JSONL reading/writing with a leading provenance row, the one reader of
cruxkit's input files, and the one checker of its rows and config files.

Output files start with one ``{"meta": {...}}`` row carrying the config hash
and seeds; readers skip it. Writers sort keys so reruns with identical
inputs produce byte-identical files.

``open_rows``, ``read_json`` (a config file) and ``read_text`` (a testbench)
open and decode every input file: a file that is missing, a directory or
unreadable, a file that is not UTF-8, or a line or config that is not JSON,
is a ``ConfigError``, as is an output file ``write_lines`` cannot create.
``check`` holds an input row or a config object against its kind in
``KINDS``. This module imports no other cruxkit module, so each layer's
config class checks its fields here, and reading a config file loads no
layer.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple


class ConfigError(ValueError):
    """Bad configuration, an input file that cannot be read or decoded, an
    output file that cannot be written or a malformed input row (exit code 2)."""


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ConfigError:
    # no line or position: a file is decoded in chunks read ahead of its lines
    return ConfigError(f"{path} is not UTF-8: can't decode byte 0x{exc.object[exc.start]:02x}")


def _open(path: str, what: str):
    """The ``what`` file at ``path``, opened to read as UTF-8; a missing
    file, a directory or a file that cannot be read is a usage error."""
    try:
        return open(path, encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} cannot be read: {path}: {exc.strerror}") from exc


def read_text(path: str, what: str, label: str = "") -> str:
    """The text of the ``what`` file at ``path``; one that is not UTF-8 is a
    usage error that begins with ``label``."""
    with _open(path, what) as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(label + str(_not_utf8(path, exc))) from exc


def read_json(path: str, what: str, label: str):
    """The JSON value of the ``what`` config file at ``path``; text that is
    not UTF-8 or not JSON is a usage error that begins with ``label``."""
    try:
        return json.loads(read_text(path, what, f"{label}: "))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def open_rows(path: str, what: str) -> Iterator[dict]:
    """``read_rows`` of the ``what`` JSONL file at ``path``, opened by this
    call, so one that cannot be is reported before any row is asked for."""
    return read_rows(path, _open(path, what))


def read_rows(path: str, f) -> Iterator[dict]:
    """The rows of ``f``, the JSONL file at ``path``, its meta row and blank
    lines skipped; a line that is not JSON, or a file that is not UTF-8, is
    a usage error. Closes ``f`` once read."""
    with f:
        try:
            for line_no, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}:{line_no}: bad JSON: {exc}") from exc
                if isinstance(row, dict) and len(row) == 1 and "meta" in row:
                    continue
                yield row
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


# json.dumps(row, sort_keys=True) builds an encoder per call; this one is shared.
# NaN and the infinities are not JSON (RFC 8259), so encoding one raises ValueError.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def encode_row(row: dict) -> str:
    """One output line without its newline; keys sorted for byte-identical reruns."""
    return _ENCODER.encode(row)


def write_lines(path: str, lines: Iterable[str], meta: dict | None = None) -> None:
    """Writes the meta row, then rows already encoded by ``encode_row``; a
    file that cannot be created is a usage error."""
    try:
        f = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    with f:
        if meta is not None:
            f.write(encode_row({"meta": meta}) + "\n")
        for line in lines:
            f.write(line + "\n")


def write_rows(path: str, rows: Iterable[dict], meta: dict | None = None) -> None:
    write_lines(path, map(encode_row, rows), meta)


class _Type(NamedTuple):
    """What a kind holds under a key: the type of its value, as errors and
    README name it, and the type's test; whether the key may be absent; and
    the errors for a bad value and for no key."""

    name: str
    test: Callable[[object], bool]
    optional: bool = False
    bad: str = "{what}: {key!r} must be a {name}"
    absent: str = "{what} has no {key!r}"


def _is(name: str, *types: type, optional: bool = False) -> _Type:
    return _Type(name, lambda value: isinstance(value, types), optional)


def _real(value) -> bool:
    """Whether ``value`` is a number a float holds finite: not a bool, NaN
    (which ``json.loads`` reads), an infinity or an int past the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(name: str, test: Callable[[float], bool]) -> _Type:
    """An optional number (not a bool) that passes ``test``."""
    return _Type(name, lambda value: _real(value) and test(value), True)


def _at_least(least: int) -> _Type:
    """An optional int (not a bool) of at least ``least``."""
    return _Type(f"int >= {least}", lambda value: type(value) is int and value >= least, True,
                 bad="{what}: {key!r} must be an {name}")


def _fills_scoring_slots(template) -> bool:
    """Whether ``template`` is a nonempty str that formats with only the
    {realspec} and {crux} slots."""
    if not isinstance(template, str) or not template:
        return False
    try:
        template.format(realspec="", crux="")
    except (LookupError, ValueError, AttributeError, TypeError):
        return False
    return True


_SCALAR = _is("scalar", str, int, float, bool, type(None))  # a JSON value that hashes
_STR, _LIST, _DICT = _is("str", str), _is("list", list), _is("dict", dict)
_ANY = _Type("any", lambda value: True)
_PAYLOAD = _is("dict or null", dict, type(None), optional=True)
_STRINGS = _Type("list of strings", lambda value: isinstance(value, (list, tuple))
                 and all(isinstance(item, str) for item in value), optional=True)
_STEP = _Type("int >= 0", lambda value: type(value) is int and value >= 0,
              bad="{what} has a bad {key!r}: {value!r}")
_CATEGORIES = ("EasyQuestion", "NormalData", "SpecialNonText")  # corpus.Category's values
_NO_CATEGORY = "{what} has no known category ({value!r}); run categorize first"
_PAIR = {"id": _SCALAR, "description": _STR, "reference_code": _STR}
# Each kind of input row: the label and the key that name a row in errors
# ("<label> <its id>", or "<label> <its place>" when it has no id that is a
# scalar other than null), and the keys it holds. A row may hold other keys.
ROW_KINDS = {
    "pair": ("corpus row", "id", _PAIR),
    "categorized pair": ("corpus row", "id", {**_PAIR, "category": _Type(
        "EasyQuestion, NormalData or SpecialNonText", lambda value: value in _CATEGORIES,
        bad=_NO_CATEGORY, absent=_NO_CATEGORY)}),
    "verdict": ("verdict row", "id", {"id": _SCALAR, "passed": _ANY}),
    "transcript": ("transcript row", "id", {"id": _SCALAR, "stage": _SCALAR, "text": _STR}),
    "task": ("task row", "id", {"id": _SCALAR, "reference_code": _STR}),
    "candidates": ("candidates row", None, {"task_id": _SCALAR, "candidates": _STRINGS}),
    "group": ("groups row", None, {"task_id": _SCALAR, "rollouts": _LIST,
                                   "step": _STEP._replace(optional=True)}),
    "rollout": ("groups row", None, {"code_text": _STR, "crux_text": _STR, "logprobs_new": _DICT,
                                  "logprobs_old": _DICT, "logprobs_ref": _PAYLOAD,
                                  "crux_score": _PAYLOAD}),
    "reward": ("reward row", None, {"step": _STEP, "rewards": _Type(
        "non-empty list of objects with a number 'mixed'",
        lambda value: isinstance(value, list) and value != []
        and all(isinstance(r, dict) and _real(r.get("mixed")) for r in value))}),
}

_TEXT, _SECTION = _is("str", str, optional=True), _is("dict", dict, optional=True)
_UNIT = _number("number in [0, 1]", lambda value: 0 <= value <= 1)
# |w| <= 1e100 bounds a mixed reward by 4e100 and a group's sum of squared
# deviations by 64 * G * 1e200, so the advantages of any group stay finite
_WEIGHTS = _Type("list of four numbers in [-1e100, 1e100]",
                 lambda value: isinstance(value, (list, tuple)) and len(value) == 4
                 and all(_real(w) and abs(w) <= 1e100 for w in value), True)
_COMMAND = _Type("str that references {out}",
                 lambda value: isinstance(value, str) and "{out}" in value, True)
_LOGPROB = _number("finite number <= 0", lambda value: value <= 0)
# Each kind of config object (a file, or a section or item of one), labelled
# as its errors begin. Its keys are all optional, and it may hold no other.
CONFIG_KINDS = {
    "config": ("config file", None, {
        "seed": _at_least(0), "degradation": _SECTION, "augmentation": _SECTION,
        "schedule": _SECTION, "grpo": _SECTION,
        "k_values": _Type("non-empty list of ints >= 1", lambda value: isinstance(value, list)
                          and value != [] and all(type(k) is int and k >= 1 for k in value), True),
        "threshold": _number("number", lambda value: True), "probe_n": _at_least(1),
        "keywords": _Type("list of strings or null",
                          lambda value: value is None or _STRINGS.test(value), True),
        "timeout_ms": _at_least(1),
        "scoring_template": _Type("nonempty str with only the {realspec} and {crux} slots",
                                  _fills_scoring_slots, True)}),
    "degradation": ("bad degradation settings", None,
                    {"p_full_retain": _UNIT, "p_keep_element": _UNIT}),
    "augmentation": ("bad augmentation settings", None, {
        "p_middle_insert": _UNIT, "prefix_pool": _STRINGS, "suffix_pool": _STRINGS,
        "p_prefix": _UNIT, "p_suffix": _UNIT}),
    "schedule": ("bad schedule settings", None, {
        "steps_per_epoch": _at_least(1), "early": _WEIGHTS, "late": _WEIGHTS,
        "switch_fraction": _UNIT}),
    "grpo": ("bad grpo settings", None, {
        "epsilon": _number("number > 0", lambda value: value > 0),
        "beta": _number("number >= 0", lambda value: value >= 0),
        "eps_std": _number("number > 0", lambda value: value > 0)}),
    "toolchain": ("bad toolchain config", None, {
        "compile_cmd": _COMMAND, "run_cmd": _COMMAND,
        "env": _Type("dict of strings", lambda value: isinstance(value, dict)
                     and all(isinstance(item, str) for item in (*value, *value.values())), True),
        "compile_timeout_ms": _at_least(1), "keep_artifacts": _is("bool", bool, optional=True),
        "workers": _at_least(1)}),
    "provider": ("bad provider config", None, {
        "kind": _Type('"mock" or "http"', lambda value: value in ("mock", "http"), True,
                      bad="{what}: {key!r} must be {name}, not {value!r}"),
        "base_url": _TEXT, "model": _TEXT, "api_key_env": _TEXT,
        "timeout_s": _number("number > 0", lambda value: value > 0), "max_retries": _at_least(1),
        "backoff_s": _number("number >= 0", lambda value: value >= 0),
        "audit_path": _is("str or null", str, type(None), optional=True), "mock": _PAYLOAD}),
    "mock": ("bad provider config", None, {
        "completions": _is("list", list, optional=True), "default_completions": _STRINGS,
        "logprob_table": _Type("dict of finite numbers <= 0", lambda value: isinstance(value, dict)
                               and all(map(_LOGPROB.test, value.values())), True),
        "default_logprob": _LOGPROB, "fail_first": _at_least(0), "seed": _at_least(0)}),
    "completions": ("bad provider config: mock completion", None,
                    {"match": _TEXT, "texts": _STRINGS}),
}
KINDS = {**ROW_KINDS, **CONFIG_KINDS}


def check(kind: str, place: int | str | None, row):
    """``row``, at ``place`` in its file, if it is an object holding each
    key of its ``kind`` (an optional one may be absent) with a value of the
    key's type, and, for a config kind, no other key; else a usage error
    naming the row, by its kind's label alone when ``place`` is None."""
    label, named_by, keys = KINDS[kind]
    key, rule, value = None, _ANY, None
    if not isinstance(row, dict):
        message, row = "{what} is not an object", {}
    elif kind in CONFIG_KINDS and not row.keys() <= keys.keys():
        message, value = "{what}: unknown keys {value}", sorted(row.keys() - keys.keys())
    else:
        for key, rule in keys.items():
            if key in row:
                if rule.test(row[key]):
                    continue
                message, value = rule.bad, row[key]
            elif rule.optional:
                continue
            else:
                message = rule.absent
            break
        else:
            return row
    # the row's name is only worked out for its error
    name = row.get(named_by) if named_by else None
    if name is not None and _SCALAR.test(name):
        place = repr(name)
    what = label if place is None else f"{label} {place}"
    raise ConfigError(message.format(what=what, key=key, value=value, name=rule.name))
