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
ARCHIVE_VERSION = 1


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
    layer's arrays are views of; `offsets` maps each present pathway
    ("encoder", "head", "decoder") to its slice of them.
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

    def forward_classify(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        stochastic: bool = False,
    ) -> np.ndarray:
        if self.head is None:
            raise ValueError(f"{self.kind.value} model has no classifier head")
        h = self.encoder.forward(x, rng, stochastic)
        return self.head.forward(h)

    def forward_reconstruct(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        stochastic: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (reconstruction, latent codes)."""
        if self.decoder is None:
            raise ValueError(f"{self.kind.value} model has no decoder")
        z = self.encoder.forward(x, rng, stochastic)
        return self.decoder.forward(z), z

    def stacks(self) -> list[LayerStack]:
        return [getattr(self, role) for role in self.offsets]

    def spans(self, *roles: str) -> list[slice]:
        """Buffer slices covering the named pathways, adjacent ones merged.

        Absent pathways are skipped, so ("encoder", "decoder") is one slice
        for an autoencoder but two, around the head, for the augmented model.
        """
        out: list[slice] = []
        for span in (s for role, s in self.offsets.items() if role in roles):
            if out and out[-1].stop == span.start:
                out[-1] = slice(out[-1].start, span.stop)
            else:
                out.append(span)
        return out

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def encoder_signature(self) -> list[tuple]:
        """Structural fingerprint of the encoding pathway, for comparisons."""
        sig = []
        for layer in self.encoder.layers:
            if isinstance(layer, DenseLayer):
                sig.append(("dense", layer.in_dim, layer.out_dim, layer.activation))
            else:
                sig.append(("dropout", layer.rate))
        return sig


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
    n_encoder_layers: int = 3,
) -> PathwayNetwork:
    """Assemble a network of the requested kind.

    hidden_widths lists every encoder layer's output width and must end at
    latent_dim; by default a tapered schedule with n_encoder_layers layers is
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
        hidden_widths = taper_widths(input_dim, latent_dim, n_encoder_layers)
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

    enc_rng = derive_rng(rng_seed, 0)
    head_rng = derive_rng(rng_seed, 1)
    dec_rng = derive_rng(rng_seed, 2)

    enc_layers: list = []
    prev = input_dim
    for width in hidden_widths:
        enc_layers.append(DenseLayer.init(enc_rng, prev, width, "relu"))
        enc_layers.append(DropoutLayer(dropout_rate))
        prev = width
    # the bottleneck itself stays linear so the latent space is unsquashed
    enc_layers[-2].activation = "identity"
    encoder = LayerStack(enc_layers)

    head = None
    if kind in (ModelKind.AUGMENTED, ModelKind.CLASSIFIER_ONLY):
        n_out = 1 if n_classes == 2 else n_classes
        out_act = "sigmoid" if n_classes == 2 else "softmax"
        layers = []
        prev = latent_dim
        for width in head_widths:
            layers.append(DenseLayer.init(head_rng, prev, width, "relu"))
            prev = width
        layers.append(DenseLayer.init(head_rng, prev, n_out, out_act))
        head = LayerStack(layers)

    decoder = None
    if kind in (ModelKind.AUGMENTED, ModelKind.AUTOENCODER_ONLY):
        widths = list(reversed(hidden_widths[:-1])) + [input_dim]
        layers = []
        prev = latent_dim
        for i, width in enumerate(widths):
            act = decoder_activation if i == len(widths) - 1 else "relu"
            layers.append(DenseLayer.init(dec_rng, prev, width, act))
            prev = width
        decoder = LayerStack(layers)

    roles = {"encoder": encoder, "head": head, "decoder": decoder}
    present = [role for role, stack in roles.items() if stack is not None]
    params, grads, spans = flatten_stacks([roles[role] for role in present])
    return PathwayNetwork(
        kind=kind,
        encoder=encoder,
        decoder=decoder,
        head=head,
        input_dim=input_dim,
        latent_dim=latent_dim,
        n_classes=n_classes,
        encoder_widths=list(hidden_widths),
        head_widths=list(head_widths),
        dropout_rate=dropout_rate,
        decoder_activation=decoder_activation,
        params=params,
        grads=grads,
        offsets=dict(zip(present, spans)),
    )


# ---------------------------------------------------------------------------
# weight archive


def _descriptor(net: PathwayNetwork) -> dict:
    return {
        "kind": net.kind.value,
        "input_dim": net.input_dim,
        "latent_dim": net.latent_dim,
        "n_classes": net.n_classes,
        "encoder_widths": net.encoder_widths,
        "head_widths": net.head_widths,
        "dropout_rate": net.dropout_rate,
        "decoder_activation": net.decoder_activation,
    }


def save(net: PathwayNetwork, path) -> None:
    """Write the architecture descriptor and all parameters to `path`.

    Layout: magic "OFDD", u16 version, u32 descriptor length, UTF-8 JSON
    descriptor, then the flat parameter buffer as little-endian float64
    (encoder, head, decoder; weights row-major, then bias, per dense layer).
    """
    desc = json.dumps(_descriptor(net), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<H", ARCHIVE_VERSION))
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(net.params.astype("<f8").tobytes())


def load(path) -> PathwayNetwork:
    """Rebuild a network from an archive written by `save`.

    Raises MagicMismatchError / VersionMismatchError / TruncatedPayloadError
    for the corresponding corruptions, and ArchiveError for any other
    unreadable descriptor or payload.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10:
        raise TruncatedPayloadError("archive shorter than its fixed header")
    if blob[:4] != ARCHIVE_MAGIC:
        raise MagicMismatchError(f"bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != ARCHIVE_VERSION:
        raise VersionMismatchError(f"archive version {version}, expected {ARCHIVE_VERSION}")
    (desc_len,) = struct.unpack("<I", blob[6:10])
    if len(blob) < 10 + desc_len:
        raise TruncatedPayloadError("descriptor is cut short")
    try:
        desc = json.loads(blob[10 : 10 + desc_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"unreadable descriptor: {exc}") from exc

    try:
        net = build(
            kind=ModelKind(desc["kind"]),
            input_dim=desc["input_dim"],
            latent_dim=desc["latent_dim"],
            hidden_widths=list(desc["encoder_widths"]),
            dropout_rate=desc["dropout_rate"],
            n_classes=desc["n_classes"],
            head_widths=list(desc["head_widths"]),
            decoder_activation=desc["decoder_activation"],
        )
    except KeyError as exc:
        raise ArchiveError(f"descriptor lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ArchiveError(f"invalid descriptor: {exc}") from exc

    offset = 10 + desc_len
    extra = len(blob) - offset - net.params.nbytes
    if extra < 0:
        raise TruncatedPayloadError(f"payload ends {-extra} bytes early")
    if extra > 0:
        raise ArchiveError(f"{extra} trailing bytes after payload")
    net.params[...] = np.frombuffer(blob, dtype="<f8", offset=offset)
    return net
