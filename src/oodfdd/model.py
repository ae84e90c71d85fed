"""Three-pathway network assembly and weight persistence.

The augmented model shares one encoding pathway (dense layers, each followed
by dropout) between a decoding pathway that reconstructs the input and a small
classifying head attached at the latent bottleneck.  The two benchmark
ablations drop one of the output pathways but are built with identical encoder
weights for a given seed.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .nncore import DenseLayer, DropoutLayer, LayerStack, derive_rng, flatten_stacks

ARCHIVE_MAGIC = b"OFDD"
ARCHIVE_VERSION = 2
# depth of the default tapered encoder, when no hidden_widths are given
ENCODER_LAYERS = 3


class ModelKind(enum.Enum):
    AUGMENTED = "augmented"
    CLASSIFIER_ONLY = "classifier"
    AUTOENCODER_ONLY = "autoencoder"


class ArchiveError(Exception):
    """Base class for weight-archive failures."""


class MagicMismatchError(ArchiveError):
    pass


class VersionMismatchError(ArchiveError):
    pass


class TruncatedPayloadError(ArchiveError):
    pass


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


def taper_widths(input_dim: int, latent_dim: int, n_layers: int) -> list[int]:
    """Geometrically tapered layer widths from input_dim down to latent_dim.

    Widths are rounded up, and the final layer is always exactly latent_dim,
    e.g. 6 -> [5, 3, 2] for a 3-layer encoder with a 2-dim latent space.
    """
    if n_layers < 1:
        raise ValueError("need at least one encoder layer")
    widths = []
    for k in range(1, n_layers + 1):
        frac = k / n_layers
        widths.append(
            math.ceil(input_dim ** (1.0 - frac) * latent_dim**frac - 1e-9)
        )
    widths[-1] = latent_dim
    return widths


@dataclass
class PathwayNetwork:
    """Layered computation graph with encoder, decoder and classifier head.

    `n_classes` counts label values including normal.  Two-class models use a
    single sigmoid output unit; multiclass models use an (n_classes)-way
    softmax.  Dropout exists only inside the encoder.

    `params` and `grads` are flat buffers in archive order that every dense
    layer's arrays are views of, and the one array that Adam steps, the
    early-stop snapshot copies and the archive writes; `offsets` maps each
    present pathway ("encoder", "head", "decoder") to its slice of them.
    """

    kind: ModelKind
    encoder: LayerStack
    decoder: LayerStack | None
    head: LayerStack | None
    input_dim: int
    latent_dim: int
    n_classes: int
    encoder_widths: list[int]
    head_widths: list[int]
    dropout_rate: float
    decoder_activation: str
    params: np.ndarray = field(repr=False, compare=False)
    grads: np.ndarray = field(repr=False, compare=False)
    offsets: dict[str, slice] = field(repr=False, compare=False)

    @property
    def n_outputs(self) -> int:
        """Width of the classifier output (1 for the two-class sigmoid)."""
        return 1 if self.n_classes == 2 else self.n_classes


def _layout(kind: ModelKind, input_dim: int, latent_dim: int, hidden_widths: list[int],
            head_widths: list[int], n_classes: int) -> dict[str, tuple[int, list[int]]]:
    """Each present pathway's input width and dense layer widths, by role in
    buffer order.  The head ends in one unit for two classes and n_classes
    units otherwise; the decoder mirrors the encoder back to input_dim."""
    layout = {"encoder": (input_dim, list(hidden_widths))}
    if kind is not ModelKind.AUTOENCODER_ONLY:
        layout["head"] = (latent_dim, [*head_widths, 1 if n_classes == 2 else n_classes])
    if kind is not ModelKind.CLASSIFIER_ONLY:
        layout["decoder"] = (latent_dim, [*reversed(hidden_widths[:-1]), input_dim])
    return layout


def build(
    kind: ModelKind,
    input_dim: int,
    latent_dim: int,
    hidden_widths: list[int] | None = None,
    dropout_rate: float = 0.2,
    n_classes: int = 2,
    rng_seed: int = 0,
    head_widths: list[int] | None = None,
    decoder_activation: str = "identity",
) -> PathwayNetwork:
    """Assemble a network of the requested kind.

    hidden_widths lists every encoder layer's output width and must end at
    latent_dim; by default a tapered schedule with ENCODER_LAYERS layers is
    used.  The decoder mirrors the encoder without dropout; the head stays
    small (head_widths, default one hidden layer of 8 units).  Per-pathway
    rng streams are derived from rng_seed so every kind shares identical
    encoder and head initializations.
    """
    if input_dim < 1 or latent_dim < 1:
        raise ValueError("input_dim and latent_dim must be positive")
    if n_classes < 2:
        raise ValueError("need at least two classes (normal + one fault)")
    if hidden_widths is None:
        hidden_widths = taper_widths(input_dim, latent_dim, ENCODER_LAYERS)
    if not hidden_widths:
        raise ValueError("hidden_widths must be non-empty")
    if hidden_widths[-1] != latent_dim:
        raise ValueError(
            f"last encoder width {hidden_widths[-1]} must equal latent_dim {latent_dim}"
        )
    if head_widths is None:
        head_widths = [8]
    if decoder_activation not in ("identity", "sigmoid"):
        raise ValueError("decoder activation must be identity or sigmoid")

    last = {"encoder": "identity",  # the bottleneck stays linear, unsquashed
            "head": "sigmoid" if n_classes == 2 else "softmax",
            "decoder": decoder_activation}
    stacks = {}
    for role, (prev, widths) in _layout(kind, input_dim, latent_dim, hidden_widths,
                                        head_widths, n_classes).items():
        # one init stream per role, whatever the kind
        rng = derive_rng(rng_seed, ("encoder", "head", "decoder").index(role))
        layers: list = []
        for i, width in enumerate(widths):
            act = last[role] if i == len(widths) - 1 else "relu"
            layers.append(DenseLayer.init(rng, prev, width, act))
            if role == "encoder":
                layers.append(DropoutLayer(dropout_rate))
            prev = width
        stacks[role] = LayerStack(layers)
    params, grads, spans = flatten_stacks(list(stacks.values()))
    return PathwayNetwork(
        kind=kind,
        encoder=stacks["encoder"],
        decoder=stacks.get("decoder"),
        head=stacks.get("head"),
        input_dim=input_dim,
        latent_dim=latent_dim,
        n_classes=n_classes,
        encoder_widths=list(hidden_widths),
        head_widths=list(head_widths),
        dropout_rate=dropout_rate,
        decoder_activation=decoder_activation,
        params=params,
        grads=grads,
        offsets=dict(zip(stacks, spans)),
    )


# ---------------------------------------------------------------------------
# weight archive


def _descriptor(net: PathwayNetwork, cal: Calibration) -> dict:
    return {
        "kind": net.kind.value,
        "input_dim": net.input_dim,
        "latent_dim": net.latent_dim,
        "n_classes": net.n_classes,
        "encoder_widths": net.encoder_widths,
        "head_widths": net.head_widths,
        "dropout_rate": net.dropout_rate,
        "decoder_activation": net.decoder_activation,
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
    UTF-8 JSON descriptor, then the flat parameter buffer as little-endian
    float64 (encoder, head, decoder; weights row-major, then bias, per dense
    layer).  The descriptor's "calibration" object holds alpha, t_samples,
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


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _dense_params(prev: int, widths: list[int]) -> int:
    n = 0
    for width in widths:
        n += (prev + 1) * width
        prev = width
    return n


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
                           f"for a {net.kind.value} model")
    if clf is not None:
        clf = np.array([_finite(v, "classifier threshold") for v in clf], dtype=np.float64)
        if len(clf) != net.n_classes:
            raise ArchiveError(
                f"{len(clf)} classifier thresholds for {net.n_classes} classes")
    if (rec_thr is None) != (net.decoder is None):
        raise ArchiveError(f"rec threshold {'missing' if rec_thr is None else 'present'} "
                           f"for a {net.kind.value} model")
    if rec_thr is not None:
        rec_thr = _finite(rec_thr, "rec threshold")
    return Calibration(alpha, t_samples, seed, clf, rec_thr)


def load(path) -> tuple[PathwayNetwork, Calibration]:
    """Rebuild a network and its calibration from an archive written by `save`.

    Raises MagicMismatchError / VersionMismatchError / TruncatedPayloadError
    for the corresponding corruptions, and ArchiveError for any other
    unreadable descriptor, calibration record or payload, a NaN or infinite
    parameter or threshold included.  The payload length is checked against
    the descriptor before any layer is allocated.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10:
        raise TruncatedPayloadError("archive shorter than its fixed header")
    if blob[:4] != ARCHIVE_MAGIC:
        raise MagicMismatchError(f"bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version == 1:
        raise VersionMismatchError(
            "archive version 1 carries no calibration record; retrain with `oodfdd train`")
    if version != ARCHIVE_VERSION:
        raise VersionMismatchError(f"archive version {version}, expected {ARCHIVE_VERSION}")
    (desc_len,) = struct.unpack("<I", blob[6:10])
    if len(blob) < 10 + desc_len:
        raise TruncatedPayloadError("descriptor is cut short")
    try:
        desc = json.loads(blob[10 : 10 + desc_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON included
        raise ArchiveError(f"unreadable descriptor: {exc}") from exc

    offset = 10 + desc_len
    try:
        kind = ModelKind(desc["kind"])
        input_dim = _positive_int(desc["input_dim"], "input_dim")
        latent_dim = _positive_int(desc["latent_dim"], "latent_dim")
        n_classes = _positive_int(desc["n_classes"], "n_classes")
        widths = [_positive_int(w, "encoder width") for w in desc["encoder_widths"]]
        head_widths = [_positive_int(w, "head width") for w in desc["head_widths"]]
        n_params = sum(_dense_params(prev, layer_widths) for prev, layer_widths in
                       _layout(kind, input_dim, latent_dim, widths, head_widths,
                               n_classes).values())
        extra = len(blob) - offset - 8 * n_params
        if extra < 0:
            raise TruncatedPayloadError(f"payload ends {-extra} bytes early")
        if extra > 0:
            raise ArchiveError(f"{extra} trailing bytes after payload")
        net = build(
            kind=kind,
            input_dim=input_dim,
            latent_dim=latent_dim,
            hidden_widths=widths,
            dropout_rate=desc["dropout_rate"],
            n_classes=n_classes,
            head_widths=head_widths,
            decoder_activation=desc["decoder_activation"],
        )
        cal = _calibration(desc["calibration"], net)
    except KeyError as exc:
        raise ArchiveError(f"descriptor lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"invalid descriptor: {exc}") from exc

    net.params[...] = np.frombuffer(blob, dtype="<f8", offset=offset)
    bad = np.flatnonzero(~np.isfinite(net.params))
    if bad.size:
        raise ArchiveError(f"non-finite value {net.params[bad[0]]} at parameter index {bad[0]}")
    return net, cal
