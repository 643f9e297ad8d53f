"""Exception types raised by vexlab operations, and the config checks."""

import os
import warnings
from numbers import Integral, Real

import numpy as np


class VexlabError(Exception):
    """Base class for all vexlab errors."""


class NonElliptic(VexlabError):
    """An exponent field dips to 1 or below somewhere on the domain."""


class ExponentTooLarge(VexlabError):
    """p(x) >= N somewhere, so the Sobolev conjugate is undefined."""


class MeshFailure(VexlabError):
    """Mesh generation produced an inconsistent or empty mesh."""


class DegenerateCell(VexlabError):
    """A cell has (numerically) zero volume."""


class NotStarShaped(VexlabError):
    """No admissible star center could be found for the domain."""


class NonFiniteIntegrand(VexlabError):
    """An integrand evaluated to NaN or infinity at a quadrature point."""


class CollapseToZero(VexlabError):
    """An iterate's gradient norm fell below the collapse tolerance;
    the candidate degenerated to the trivial solution."""


class NoScalingRoot(VexlabError):
    """The scaling projection t -> modular balance has no root to bracket."""


class InsufficientRuns(VexlabError):
    """Too few (n, epsilon) runs to form the limsup proxy."""


class ConfigError(VexlabError):
    """Invalid or incomplete experiment configuration."""


def check_keys(spec, allowed, what, required=()):
    """Raise ConfigError naming the keys of the dict spec not in allowed and
    the keys in required that spec lacks."""
    unknown = sorted(set(spec) - set(allowed))
    missing = [key for key in required if key not in spec]
    named = [f"{label} keys {keys}"
             for label, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if named:
        raise ConfigError(f"{what}: {' and '.join(named)}")


def config_number(value, what, integer=False, ndim=0):
    """A config number, or an ndim-deep nested list or array of numbers, as
    a Python float (int for an integer key) or a float (int) array.

    Raises ConfigError unless value nests exactly ndim deep, is not empty,
    and every entry is a finite real number, an integer when integer is
    set, and not a bool."""
    entries = np.asarray(value, dtype=object)
    kind = Integral if integer else Real
    if (entries.ndim != ndim or entries.size == 0
            or not all(isinstance(v, kind) and not isinstance(v, (bool, np.bool_))
                       for v in entries.flat)):
        noun = "integer" if integer else "number"
        shape = (f"a finite {noun}" if ndim == 0 else
                 f"a nonempty list of finite {noun}s, nested {ndim} deep")
        raise ConfigError(f"{what} must be {shape}, got {value!r}")
    try:
        out = entries.astype(int if integer else float)
    except OverflowError as exc:
        raise ConfigError(f"{what} is out of range: {value!r}") from exc
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out.item() if ndim == 0 else out


def read_nodal_file(spec, base_dir, nnodes, what):
    """The nnodes finite numbers in the file a {"kind", "file"} spec names,
    relative to base_dir, as a float array; ConfigError naming the file,
    not its values, for anything else."""
    check_keys(spec, ("kind", "file"), what)
    name = spec.get("file")
    if not isinstance(name, str):
        raise ConfigError(f"{what} needs a 'file' string, got {name!r}")
    path = os.path.join(base_dir or "", name)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on an empty file
            values = np.loadtxt(path).ravel()
        config_number(values, what, ndim=1)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except (ValueError, UserWarning, ConfigError) as exc:
        raise ConfigError(f"{what} file {path} must hold finite numbers only"
                          ) from exc
    if len(values) != nnodes:
        raise ConfigError(f"{what} file {path} has {len(values)} values for "
                          f"{nnodes} mesh nodes")
    return values
