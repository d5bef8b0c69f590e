"""Exceptions shared across the pipeline, and the reader of the JSON
configuration files that raises them."""

from __future__ import annotations

import json
from pathlib import Path


class ConfigError(ValueError):
    """Bad configuration: unknown formats, out-of-range parameters, unusable profiles."""


class InputError(RuntimeError):
    """Unusable input: unreadable files, empty corpora, missing or corrupt artifacts."""


def load_config_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at path; any other content is a
    ConfigError naming the file as a bad `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad {what} {path}: {exc.msg}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"bad {what} {path}: not UTF-8 text") from None
        except ValueError:
            # A number past int()'s limit of 4,300 digits.
            raise ConfigError(f"bad {what} {path}: integer too long") from None
        except RecursionError:
            raise ConfigError(f"bad {what} {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"bad {what} {path}: expected a JSON object")
    return data
