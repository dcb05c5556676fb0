"""The byte-level model: embedding with retained subword-suffix table, local
recurrent encoder, non-causal boundary scoring, last-byte pooling, transformer
backbone over patches, depooling, local recurrent decoder, and a fused
byte+boundary output head over 512 symbols.

All forward functions are pure in (params, inputs); parameters live in a flat
``ParamStore`` whose name prefix is the component tag used for checkpointing,
training groups and checkpoint arithmetic. Parameters are plain float64
values: only the training step loop differentiates them, through a copy in
its compute dtype, and every forward computes in the dtype of the store it
is given. Training and evaluation give float32 copies; decoding
(`inference`) gives the float64 store itself.

The numerical constants are fixed, not configured: the RMS epsilon, RoPE base
and mLSTM gate soft cap live in ``layers`` (the first two are shared with the
transplanted backbone), the boundary head's cosine epsilon and threshold, its
d x d projections and the mLSTM input-gate bias initialization here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .tensor import Tensor

N_FUSED = 512  # 256 bytes x boundary bit
COS_EPS = 1e-8  # keeps the boundary head's cosine finite for a zero projection
BOUNDARY_THRESHOLD = 0.5  # scores are half a cosine distance: above 0.5, the cosine is negative
INPUT_GATE_BIAS_INIT = -10.0  # mLSTM input gates start nearly closed (xLSTM)
COMPONENTS = (
    "byte_embed",
    "subword_embed",
    "encoder",
    "boundary",
    "global",
    "depool_proj",
    "decoder",
    "lm_head",
    "start_vector",
)
LOCAL_COMPONENTS = tuple(c for c in COMPONENTS if c != "global")


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    d: int = 128
    vocab_size: int = 512  # subword ids including BOS
    encoder_layers: int = 1
    decoder_layers: int = 4
    ffn_hidden: int = 256  # the local and the backbone FFNs alike
    n_probe: int = 4  # global layers crossed by the encoder-matching loss
    mlstm_heads: int = 4
    mlstm_qk_dim: int = 16
    mlstm_v_dim: int = 32
    global_layers: int = 4  # the backbone; a converted teacher fixes d, ffn_hidden and every global_* field
    global_heads: int = 4
    global_head_dim: int = 32
    boundary_mode: str = "noncausal"  # or "causal" (ablation)
    patch_cap: int = 64  # a patch closes when it reaches this many bytes, predicted or decoded

    def __post_init__(self):
        for name in ("d", "encoder_layers", "decoder_layers", "ffn_hidden", "mlstm_heads", "mlstm_qk_dim",
                     "mlstm_v_dim", "global_layers", "global_heads", "global_head_dim", "patch_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.global_heads * self.global_head_dim != self.d:
            raise ConfigError("global_heads * global_head_dim must equal d")
        if self.global_head_dim % 2:
            raise ConfigError("global_head_dim must be even (rotary positions rotate pairs)")
        if not 0 <= self.n_probe <= self.global_layers:
            raise ConfigError(f"n_probe must be in [0, global layers], got {self.n_probe}")
        if self.boundary_mode not in ("noncausal", "causal"):
            raise ConfigError(f"bad boundary_mode {self.boundary_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The inverse of `to_dict`: `d` holds exactly its keys, and each
        value has its default's type (a bool is no int)."""
        default = cls().to_dict()
        if not isinstance(d, dict) or d.keys() != default.keys():
            raise ConfigError(f"config needs exactly the keys {sorted(default)}, got {d!r}")
        for k, v in default.items():
            if type(d[k]) is not type(v):
                raise ConfigError(f"config.{k} is {d[k]!r}, not a {type(v).__name__}")
        return cls(**d)


class ParamStore(dict):
    """Named parameter tensors, partitioned by the leading name component.

    Iteration follows insertion order; a result that depends on the order
    (optimizer groups, the checkpoint table) sorts the names itself.
    `copy()` is deep: it copies every array, so a caller may change the copy
    in place. `ParamStore(params)` is the shallow copy that shares them."""

    @staticmethod
    def tag(name: str) -> str:
        return name.split(".", 1)[0]

    def component(self, tag: str) -> dict[str, Tensor]:
        return {n: t for n, t in self.items() if self.tag(n) == tag}

    def n_params(self, tags: tuple[str, ...] | None = None) -> int:
        return sum(t.size for n, t in self.items() if tags is None or self.tag(n) in tags)

    def copy(self) -> "ParamStore":
        return ParamStore({n: Tensor(t.data.copy()) for n, t in self.items()})


# -- initialization -----------------------------------------------------------

def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape))


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _init_mlstm_layer(p: dict, prefix: str, cfg: ModelConfig, rng, out_scale: float) -> None:
    d, heads = cfg.d, cfg.mlstm_heads
    qk, v = heads * cfg.mlstm_qk_dim, heads * cfg.mlstm_v_dim
    p[f"{prefix}.norm_g"] = _ones((d,))
    p[f"{prefix}.w_q"] = _normal(rng, (d, qk))
    p[f"{prefix}.w_k"] = _normal(rng, (d, qk))
    p[f"{prefix}.w_v"] = _normal(rng, (d, v))
    p[f"{prefix}.w_i"] = _zeros((d, heads))
    p[f"{prefix}.b_i"] = Tensor(np.full(heads, INPUT_GATE_BIAS_INIT))
    p[f"{prefix}.w_f"] = _zeros((d, heads))
    # a head-staggered forget bias keeps memories alive at different horizons
    p[f"{prefix}.b_f"] = Tensor(np.linspace(3.0, 6.0, heads))
    p[f"{prefix}.w_og"] = _normal(rng, (d, v))
    p[f"{prefix}.mh_norm_g"] = _ones((v,))
    p[f"{prefix}.w_out"] = _normal(rng, (v, d), std=0.02 * out_scale)


def _init_ffn(p: dict, prefix: str, cfg: ModelConfig, rng, out_scale: float) -> None:
    d, h = cfg.d, cfg.ffn_hidden
    p[f"{prefix}.norm_g"] = _ones((d,))
    p[f"{prefix}.w_gate"] = _normal(rng, (d, h))
    p[f"{prefix}.w_up"] = _normal(rng, (d, h))
    p[f"{prefix}.w_down"] = _normal(rng, (h, d), std=0.02 * out_scale)


def _init_global(p: dict, cfg: ModelConfig, rng) -> None:
    width = cfg.global_heads * cfg.global_head_dim
    scale = 1.0 / np.sqrt(2.0 * cfg.global_layers)
    for l in range(cfg.global_layers):
        ap = f"global.{l}.attn"
        p[f"{ap}.norm_g"] = _ones((cfg.d,))
        p[f"{ap}.w_q"] = _normal(rng, (cfg.d, width))
        p[f"{ap}.w_k"] = _normal(rng, (cfg.d, width))
        p[f"{ap}.w_v"] = _normal(rng, (cfg.d, width))
        p[f"{ap}.w_o"] = _normal(rng, (width, cfg.d), std=0.02 * scale)
        _init_ffn(p, f"global.{l}.ffn", cfg, rng, scale)
    p["global.final_norm_g"] = _ones((cfg.d,))


def init_teacher(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """A plain subword LM sharing the transformer backbone layout: token
    embedding, global stack, linear head over the subword vocabulary."""
    p: dict[str, Tensor] = {}
    p["subword_embed.table"] = _normal(rng, (cfg.vocab_size, cfg.d))
    _init_global(p, cfg, rng)
    p["lm_head.w"] = _normal(rng, (cfg.d, cfg.vocab_size))
    return ParamStore(p)


def init_byte_model(
    cfg: ModelConfig,
    rng: np.random.Generator,
    teacher: ParamStore | None = None,
    fresh_suffix: bool = False,
) -> ParamStore:
    """Byte-level model parameters. When a teacher is given, its transformer
    backbone is transplanted as the global component and its input embedding
    table becomes the suffix-retention table (unless `fresh_suffix`)."""
    p: dict[str, Tensor] = {}
    p["byte_embed.table"] = _normal(rng, (256, cfg.d))
    if teacher is not None and not fresh_suffix:
        p["subword_embed.table"] = Tensor(teacher["subword_embed.table"].data.copy())
    else:
        p["subword_embed.table"] = _normal(rng, (cfg.vocab_size, cfg.d))
    enc_scale = 1.0 / np.sqrt(2.0 * cfg.encoder_layers)
    for l in range(cfg.encoder_layers):
        _init_mlstm_layer(p, f"encoder.{l}.mlstm", cfg, rng, enc_scale)
        _init_ffn(p, f"encoder.{l}.ffn", cfg, rng, enc_scale)
    p["boundary.w_q"] = _normal(rng, (cfg.d, cfg.d))
    p["boundary.w_k"] = _normal(rng, (cfg.d, cfg.d))
    if teacher is not None:
        for name, t in teacher.component("global").items():
            p[name] = Tensor(t.data.copy())
    else:
        _init_global(p, cfg, rng)
    # zero depool projection: at initialization the decoder sees pure patch
    # representations, matching the transplanted backbone's output space
    p["depool_proj.w"] = _zeros((cfg.d, cfg.d))
    p["start_vector.v"] = _zeros((cfg.d,))
    dec_scale = 1.0 / np.sqrt(2.0 * cfg.decoder_layers)
    for l in range(cfg.decoder_layers):
        _init_mlstm_layer(p, f"decoder.{l}.mlstm", cfg, rng, dec_scale)
        _init_ffn(p, f"decoder.{l}.ffn", cfg, rng, dec_scale)
    p["lm_head.norm_g"] = _ones((cfg.d,))
    p["lm_head.w"] = _normal(rng, (cfg.d, N_FUSED))
    return ParamStore(p)


# -- fused symbols --------------------------------------------------------------

def fused_symbol(byte: int, boundary: bool) -> int:
    return int(byte) + (256 if boundary else 0)


def split_fused(value: int) -> tuple[int, bool]:
    return value % 256, value >= 256


def fused_targets(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-position fused symbols: the byte itself plus its boundary bit."""
    return np.asarray(data, dtype=np.int64) + 256 * np.asarray(mask, dtype=np.int64)


# -- forward pieces -------------------------------------------------------------

def embed_bytes(params: ParamStore, byte_ids: np.ndarray, suffix_ids: np.ndarray) -> Tensor:
    """e_i = ByteEmbed[x_i] + SubwordSuffixEmbed[suffix_ids[i]]."""
    byte_ids = np.asarray(byte_ids)
    suffix_ids = np.asarray(suffix_ids)
    if byte_ids.min() < 0 or byte_ids.max() > 255:
        raise ValueError("byte id out of range")
    table = params["subword_embed.table"]
    if suffix_ids.min() < 0 or suffix_ids.max() >= table.shape[0]:
        raise ValueError("suffix token id out of range")
    return T.take_rows(params["byte_embed.table"], byte_ids) + T.take_rows(table, suffix_ids)


def _local_stack(params: ParamStore, cfg: ModelConfig, x: Tensor, stack: str, n_layers: int) -> Tensor:
    """mLSTM + FFN layers of the encoder or decoder stack."""
    for l in range(n_layers):
        x = L.mlstm_block(params, f"{stack}.{l}.mlstm", x, cfg.mlstm_heads, cfg.mlstm_qk_dim, cfg.mlstm_v_dim)
        x = L.ffn_block(params, f"{stack}.{l}.ffn", x)
    return x


def local_encode(params: ParamStore, cfg: ModelConfig, e: Tensor) -> Tensor:
    return _local_stack(params, cfg, e, "encoder", cfg.encoder_layers)


def local_decode(params: ParamStore, cfg: ModelConfig, z: Tensor) -> Tensor:
    return _local_stack(params, cfg, z, "decoder", cfg.decoder_layers)


def predict_boundaries(params: ParamStore, cfg: ModelConfig, e_hat: Tensor) -> Tensor:
    """Boundary score per byte as half the cosine distance between projections
    of two adjacent representations. In the default non-causal mode the pair
    (t, t+1) scores the boundary after byte t, i.e. one byte of future context,
    and the final position (no future byte) is a forced constant boundary. In
    the causal ablation the same pair scores the boundary after byte t+1, so
    only past context is used and position 0 is the forced one."""
    b, n, _ = e_hat.shape
    q = T.matmul(e_hat[:, 1:, :], params["boundary.w_q"])
    k = T.matmul(e_hat[:, :-1, :], params["boundary.w_k"])
    scores = _cosine_score(q, k)  # one score per adjacent pair
    ones = Tensor(np.ones((b, 1), dtype=e_hat.dtype), _op="const")
    if cfg.boundary_mode == "noncausal":
        return T.concat([scores, ones], axis=1)
    return T.concat([ones, scores], axis=1)


def scored_positions(cfg: ModelConfig) -> slice:
    """The positions whose boundary bit comes from a real score: all but the
    last byte, which `predicted_mask` always flags, and in the causal
    ablation also the first, which `predict_boundaries` forces."""
    return slice(None, -1) if cfg.boundary_mode == "noncausal" else slice(1, -1)


def _cosine_score(q: Tensor, k: Tensor) -> Tensor:
    dot = (q * k).sum(axis=-1)
    qn = T.sqrt((q * q).sum(axis=-1))
    kn = T.sqrt((k * k).sum(axis=-1))
    cos = dot / (qn * kn + COS_EPS)
    return (1.0 - cos) * 0.5


def predicted_mask(p_scores: np.ndarray, patch_cap: int) -> np.ndarray:
    """Boundaries where the score passes `BOUNDARY_THRESHOLD`, at the last
    byte, and wherever an open patch reaches `patch_cap` bytes: the rule
    decoding closes patches by, applied left to right."""
    mask = np.asarray(p_scores) > BOUNDARY_THRESHOLD
    mask[..., -1] = True
    pos = np.arange(mask.shape[-1])
    last = np.maximum.accumulate(np.where(mask, pos, -1), axis=-1)
    # a byte t short of a boundary would be the (t - last)-th of an uncapped
    # patch; the cap closes every patch_cap-th of those
    return mask | ((pos - last) % patch_cap == 0)


def pool_indices(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pad per-row boundary positions to the max patch count. Returns
    (ends (B, P), valid (B, P)); padded slots index position 0 and are
    excluded downstream by `valid`."""
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    counts = mask.sum(axis=1)
    if counts.min() == 0:
        raise ValueError("a row has no boundary; the final byte must be one")
    p_max = int(counts.max())
    ends = np.zeros((mask.shape[0], p_max), dtype=np.int64)
    valid = np.zeros((mask.shape[0], p_max), dtype=bool)
    for i, row in enumerate(mask):
        e = np.flatnonzero(row)
        ends[i, : len(e)] = e
        valid[i, : len(e)] = True
    return ends, valid


def pool_last(e_hat: Tensor, ends: np.ndarray) -> Tensor:
    """Patch representation = the encoder state at each patch's last byte."""
    return T.gather_rows(e_hat, ends)


def _global_layers(params: ParamStore, cfg: ModelConfig, x: Tensor, lo: int, hi: int) -> Tensor:
    """Backbone layers lo..hi-1 (attention + FFN), without the final norm."""
    if hi > cfg.global_layers:
        raise ConfigError("probe depth exceeds global layers")
    for l in range(lo, hi):
        x = L.attention_block(params, f"global.{l}.attn", x, cfg.global_heads, cfg.global_head_dim)
        x = L.ffn_block(params, f"global.{l}.ffn", x)
    return x


def global_forward(params: ParamStore, cfg: ModelConfig, h: Tensor) -> tuple[Tensor, Tensor]:
    """Transformer over patch positions. Returns the post-norm output and the
    intermediate activations after `cfg.n_probe` layers (the input when 0)."""
    probe = _global_layers(params, cfg, h, 0, cfg.n_probe)
    x = _global_layers(params, cfg, probe, cfg.n_probe, cfg.global_layers)
    return L.rms(x, params["global.final_norm_g"]), probe


def transformer_probe(params: ParamStore, cfg: ModelConfig, h: Tensor, n: int) -> Tensor:
    """Only the first n backbone layers (the identity when n=0): everything
    the encoder-matching loss needs, without paying for the full stack."""
    return _global_layers(params, cfg, h, 0, n)


def depool_index(mask: np.ndarray) -> np.ndarray:
    """Gather index per byte into [start_vector; h_hat]: the number of patch
    ends at or before the byte (0 selects the start vector)."""
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    return np.cumsum(mask, axis=1).astype(np.int64)


def depool(
    params: ParamStore,
    cfg: ModelConfig,
    e_hat: Tensor,
    h_hat: Tensor,
    mask: np.ndarray,
) -> Tensor:
    """z_j = W_depool e_hat_j + latest completed patch representation; bytes
    before the first completed patch receive the learned start vector."""
    b = e_hat.shape[0]
    idx = depool_index(mask)
    ones = Tensor(np.ones((b, 1, 1), dtype=e_hat.dtype), _op="const")
    start = ones * params["start_vector.v"]  # (B, 1, d)
    stacked = T.concat([start, h_hat], axis=1)
    return T.matmul(e_hat, params["depool_proj.w"]) + T.gather_rows(stacked, idx)


def lm_head_fused(params: ParamStore, cfg: ModelConfig, z_hat: Tensor) -> Tensor:
    """Log-probabilities over the 512 fused byte+boundary symbols."""
    x = L.rms(z_hat, params["lm_head.norm_g"])
    return T.log_softmax(T.matmul(x, params["lm_head.w"]))


def forward_full(
    params: ParamStore,
    cfg: ModelConfig,
    byte_ids: np.ndarray,
    suffix_ids: np.ndarray,
    mask: np.ndarray | None = None,
) -> dict:
    """Full pipeline. `mask` selects the pooling boundaries (supervision mask
    during training); None pools on the model's own boundaries,
    `predicted_mask`, as prefill does."""
    byte_ids = np.atleast_2d(byte_ids)
    suffix_ids = np.atleast_2d(suffix_ids)
    e = embed_bytes(params, byte_ids, suffix_ids)
    e_hat = local_encode(params, cfg, e)
    p = predict_boundaries(params, cfg, e_hat)
    if mask is None:
        mask = predicted_mask(p.data, cfg.patch_cap)
    else:
        mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    ends, valid = pool_indices(mask)
    h = pool_last(e_hat, ends)
    h_hat, probe = global_forward(params, cfg, h)
    z = depool(params, cfg, e_hat, h_hat, mask)
    z_hat = local_decode(params, cfg, z)
    logprobs = lm_head_fused(params, cfg, z_hat)
    return {
        "e_hat": e_hat,
        "p": p,
        "mask": mask,
        "ends": ends,
        "valid": valid,
        "h": h,
        "h_hat": h_hat,
        "probe": probe,
        "z": z,
        "z_hat": z_hat,
        "logprobs": logprobs,
    }
