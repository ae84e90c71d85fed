"""Three-pathway network assembly and weight persistence.

The augmented model shares one encoding pathway (dense layers, each followed
by dropout) between a decoding pathway that reconstructs the input and a small
classifying head attached at the latent bottleneck.  The two benchmark
ablations drop one of the output pathways but are built with identical encoder
weights for a given seed.

`Architecture` is the network's shape, checked by `check_shape`, the rules
the experiment config shares.  A net is assembled on a parameter buffer:
`build` draws it from a seed, `load` hands in the archive's payload.  The
archive descriptor is `kind`, the shape's fields and `calibration`.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .nncore import DenseLayer, DropoutLayer, LayerStack, derive_rng, glorot_uniform

ARCHIVE_MAGIC = b"OFDD"
ARCHIVE_VERSION = 2
# depth of the default tapered encoder, when no hidden_widths are given
ENCODER_LAYERS = 3


class ModelKind(enum.StrEnum):  # a member hashes, compares and formats as its value
    AUGMENTED = "augmented"
    CLASSIFIER_ONLY = "classifier"
    AUTOENCODER_ONLY = "autoencoder"


class ArchiveError(Exception):
    """A weight archive that cannot be read back."""


@dataclass
class Calibration:
    """Detection thresholds fitted on the training normals, the one record
    from `detect.calibrate` through the weight archive to `detect.score`.

    `clf_thresholds` has one entry per classifier channel (n_classes of them)
    and is None without a head; `rec_threshold` is None without a decoder.
    Scoring draws `t_samples` MC passes from `seed`.
    """

    alpha: float
    t_samples: int
    seed: int
    clf_thresholds: np.ndarray | None
    rec_threshold: float | None

    def channels(self) -> list[tuple[str, float]]:
        """(channel, threshold) pairs: clf0, clf1, .. then rec, for the
        pathways the record has."""
        clf = [] if self.clf_thresholds is None else self.clf_thresholds
        rec = [] if self.rec_threshold is None else [("rec", self.rec_threshold)]
        return [(f"clf{j}", thr) for j, thr in enumerate(clf)] + rec


def taper_widths(input_dim: int, latent_dim: int) -> list[int]:
    """Geometrically tapered widths of ENCODER_LAYERS layers from input_dim
    down to latent_dim.

    Widths are rounded up, and the final layer is always exactly latent_dim,
    e.g. 6 -> [5, 3, 2] with a 2-dim latent space.
    """
    widths = []
    for k in range(1, ENCODER_LAYERS + 1):
        frac = k / ENCODER_LAYERS
        widths.append(
            math.ceil(input_dim ** (1.0 - frac) * latent_dim**frac - 1e-9)
        )
    widths[-1] = latent_dim
    return widths


def _positive(value) -> bool:
    return type(value) is int and value >= 1


def check_shape(latent_dim, encoder_widths, head_widths, dropout_rate, decoder_activation,
                encoder_key: str = "encoder_widths") -> None:
    """Raise a ValueError naming the first shape setting no net can take:
    widths and latent_dim are positive ints, and the encoder's widths (None
    for a tapered encoder) end at latent_dim.  NaN fails every test."""
    if not _positive(latent_dim):
        raise ValueError(f"latent_dim must be a positive integer, got {latent_dim!r}")
    if encoder_widths is not None and not (
            encoder_widths and all(map(_positive, encoder_widths))
            and encoder_widths[-1] == latent_dim):
        raise ValueError(f"{encoder_key} must be positive integers ending at latent_dim "
                         f"{latent_dim}, got {encoder_widths!r}")
    if not all(map(_positive, head_widths)):
        raise ValueError(f"head_widths must be positive integers, got {head_widths!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate!r}")
    if decoder_activation not in ("identity", "sigmoid"):
        raise ValueError(f"unknown decoder_activation {decoder_activation!r}, "
                         "expected identity or sigmoid")


@dataclass(frozen=True)
class Architecture:
    """The network's shape, which all three kinds of one experiment share.

    `encoder_widths` lists every encoder layer's output width and ends at
    latent_dim; `head_widths` lists the head's hidden layers.  `n_classes`
    counts label values including normal: two classes take a single sigmoid
    output unit, more an (n_classes)-way softmax.  The decoder mirrors the
    encoder back to input_dim, ending in `decoder_activation` (identity or
    sigmoid); dropout at `dropout_rate` follows every encoder layer.
    """

    input_dim: int
    latent_dim: int
    n_classes: int
    encoder_widths: list[int]
    head_widths: list[int]
    dropout_rate: float
    decoder_activation: str

    def __post_init__(self):
        if not _positive(self.input_dim):
            raise ValueError(f"input_dim must be a positive integer, got {self.input_dim!r}")
        if not (_positive(self.n_classes) and self.n_classes >= 2):
            raise ValueError(f"n_classes must be an integer of at least 2, got {self.n_classes!r}")
        check_shape(self.latent_dim, self.encoder_widths, self.head_widths,
                    self.dropout_rate, self.decoder_activation)

    @property
    def n_outputs(self) -> int:
        """Width of the classifier output (1 for the two-class sigmoid)."""
        return 1 if self.n_classes == 2 else self.n_classes

    def layout(self, kind: ModelKind) -> dict[str, tuple[int, list[int]]]:
        """Each pathway `kind` has: its input width and dense layer widths, by
        role in buffer order."""
        layout = {"encoder": (self.input_dim, self.encoder_widths)}
        if kind != ModelKind.AUTOENCODER_ONLY:
            layout["head"] = (self.latent_dim, [*self.head_widths, self.n_outputs])
        if kind != ModelKind.CLASSIFIER_ONLY:
            layout["decoder"] = (self.latent_dim,
                                 [*reversed(self.encoder_widths[:-1]), self.input_dim])
        return layout

    def n_params(self, kind: ModelKind) -> int:
        """Length of the flat parameter buffer of a `kind` net."""
        n = 0
        for prev, widths in self.layout(kind).values():
            for width in widths:
                n += (prev + 1) * width
                prev = width
        return n


@dataclass
class PathwayNetwork:
    """Layered computation graph with encoder, decoder and classifier head,
    the pathways `kind` has, in the shape `arch`.

    `params` and `grads` are flat buffers in archive order that every dense
    layer's arrays are views of, and the one array that Adam steps, the
    early-stop snapshot copies and the archive writes; `offsets` maps each
    present pathway ("encoder", "head", "decoder") to its slice of them.
    """

    kind: ModelKind
    arch: Architecture
    encoder: LayerStack
    decoder: LayerStack | None
    head: LayerStack | None
    params: np.ndarray = field(repr=False, compare=False)
    grads: np.ndarray = field(repr=False, compare=False)
    offsets: dict[str, slice] = field(repr=False, compare=False)


def build(kind: ModelKind, arch: Architecture, seed: int) -> PathwayNetwork:
    """A `kind` net of shape `arch` with zero biases and Glorot weights drawn
    from one stream of seed per pathway, whatever the kind, so every kind
    shares identical encoder and head initializations."""
    net = assemble(kind, arch, np.zeros(arch.n_params(kind)))
    for role in net.offsets:
        rng = derive_rng(seed, ("encoder", "head", "decoder").index(role))
        for layer in getattr(net, role).dense_layers():
            layer.weights[...] = glorot_uniform(rng, *layer.weights.shape)
    return net


def assemble(kind: ModelKind, arch: Architecture, params: np.ndarray) -> PathwayNetwork:
    """The `kind` net of shape `arch` whose dense layers are views of
    `params`, a writable float64 buffer in archive order, and of a zeroed
    gradient buffer.  The decoder has no dropout."""
    last = {"encoder": "identity",  # the bottleneck stays linear, unsquashed
            "head": "sigmoid" if arch.n_outputs == 1 else "softmax",
            "decoder": arch.decoder_activation}
    grads = np.zeros_like(params)
    stacks, offsets, at = {}, {}, 0
    for role, (prev, widths) in arch.layout(kind).items():
        layers, start = [], at
        for i, width in enumerate(widths):
            mid, end = at + width * prev, at + (prev + 1) * width
            layer = DenseLayer(params[at:mid].reshape(width, prev), params[mid:end],
                               last[role] if i == len(widths) - 1 else "relu")
            layer.grad_w, layer.grad_b = grads[at:mid].reshape(width, prev), grads[mid:end]
            layers.append(layer)
            if role == "encoder":
                layers.append(DropoutLayer(arch.dropout_rate))
            at, prev = end, width
        stacks[role], offsets[role] = LayerStack(layers), slice(start, at)
    return PathwayNetwork(kind=kind, arch=arch, encoder=stacks["encoder"],
                          decoder=stacks.get("decoder"), head=stacks.get("head"),
                          params=params, grads=grads, offsets=offsets)


# ---------------------------------------------------------------------------
# weight archive


def _descriptor(net: PathwayNetwork, cal: Calibration) -> dict:
    return {
        "kind": str(net.kind),
        **asdict(net.arch),
        "calibration": {
            "alpha": float(cal.alpha),
            "t_samples": int(cal.t_samples),
            "seed": int(cal.seed),
            "clf_thresholds": None if cal.clf_thresholds is None
            else [float(v) for v in cal.clf_thresholds],
            "rec_threshold": None if cal.rec_threshold is None else float(cal.rec_threshold),
        },
    }


def save(net: PathwayNetwork, path, calibration: Calibration) -> None:
    """Write the architecture, the calibration record and all parameters.

    Layout (version 2): magic "OFDD", u16 version, u32 descriptor length,
    UTF-8 JSON descriptor (`kind`, each `Architecture` field by name and
    `calibration`, keys sorted), then the flat parameter buffer as
    little-endian float64 (encoder, head, decoder; weights row-major, then
    bias, per dense layer).  The descriptor's "calibration" object holds alpha, t_samples,
    seed, the classifier thresholds (null without a head) and the rec
    threshold (null without a decoder); JSON numbers written from Python
    floats read back bitwise equal.
    """
    desc = json.dumps(_descriptor(net, calibration), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<H", ARCHIVE_VERSION))
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(net.params.astype("<f8").tobytes())


def _finite(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ArchiveError(f"calibration {what} {value!r} is not a finite number")
    return float(value)


def _calibration(rec: dict, net: PathwayNetwork) -> Calibration:
    """The archive's calibration record, checked against its network."""
    alpha = _finite(rec["alpha"], "alpha")
    if not 0.0 < alpha < 1.0:
        raise ArchiveError(f"calibration alpha {alpha} lies outside (0, 1)")
    t_samples, seed = rec["t_samples"], rec["seed"]
    if type(t_samples) is not int or t_samples < 2:
        raise ArchiveError(f"calibration t_samples {t_samples!r} is not an integer >= 2")
    if type(seed) is not int or seed < 0:
        raise ArchiveError(f"calibration seed {seed!r} is not a non-negative integer")
    clf, rec_thr = rec["clf_thresholds"], rec["rec_threshold"]
    if (clf is None) != (net.head is None):
        raise ArchiveError(f"classifier thresholds {'missing' if clf is None else 'present'} "
                           f"for a {net.kind} model")
    if clf is not None:
        clf = np.array([_finite(v, "classifier threshold") for v in clf], dtype=np.float64)
        if len(clf) != net.arch.n_classes:
            raise ArchiveError(
                f"{len(clf)} classifier thresholds for {net.arch.n_classes} classes")
    if (rec_thr is None) != (net.decoder is None):
        raise ArchiveError(f"rec threshold {'missing' if rec_thr is None else 'present'} "
                           f"for a {net.kind} model")
    if rec_thr is not None:
        rec_thr = _finite(rec_thr, "rec threshold")
    return Calibration(alpha, t_samples, seed, clf, rec_thr)


def load(path) -> tuple[PathwayNetwork, Calibration]:
    """Rebuild a network and its calibration from an archive written by `save`.

    Raises ArchiveError, naming `path`, for a bad magic, a version other
    than 2, a header, descriptor or payload cut short, and any other
    unreadable descriptor, calibration record or payload, a NaN or infinite
    parameter or threshold included.  The payload length is checked against
    the descriptor's architecture before any layer is allocated, and the
    net is assembled on a copy of the payload.
    """
    with open(path, "rb") as fh:
        try:
            return _unpack(fh.read())
        except ArchiveError as exc:
            raise ArchiveError(f"{path}: {exc}") from exc


def _unpack(blob: bytes) -> tuple[PathwayNetwork, Calibration]:
    if len(blob) < 10:
        raise ArchiveError("archive shorter than its fixed header")
    if blob[:4] != ARCHIVE_MAGIC:
        raise ArchiveError(f"bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version == 1:
        raise ArchiveError(
            "archive version 1 carries no calibration record; retrain with `oodfdd train`")
    if version != ARCHIVE_VERSION:
        raise ArchiveError(f"archive version {version}, expected {ARCHIVE_VERSION}")
    (desc_len,) = struct.unpack("<I", blob[6:10])
    if len(blob) < 10 + desc_len:
        raise ArchiveError("descriptor is cut short")
    try:
        desc = json.loads(blob[10 : 10 + desc_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON included
        raise ArchiveError(f"unreadable descriptor: {exc}") from exc

    offset = 10 + desc_len
    try:
        kind = ModelKind(desc["kind"])
        arch = Architecture(**{f.name: desc[f.name] for f in fields(Architecture)})
        extra = len(blob) - offset - 8 * arch.n_params(kind)
        if extra < 0:
            raise ArchiveError(f"payload ends {-extra} bytes early")
        if extra > 0:
            raise ArchiveError(f"{extra} trailing bytes after payload")
        params = np.frombuffer(blob, "<f8", offset=offset).astype(np.float64)  # writable
        net = assemble(kind, arch, params)
        cal = _calibration(desc["calibration"], net)
    except KeyError as exc:
        raise ArchiveError(f"descriptor lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"invalid descriptor: {exc}") from exc

    bad = np.flatnonzero(~np.isfinite(net.params))
    if bad.size:
        raise ArchiveError(f"non-finite value {net.params[bad[0]]} at parameter index {bad[0]}")
    return net, cal
