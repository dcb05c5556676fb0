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


# -- layer plan and initialization -------------------------------------------

def layer_plan(cfg: ModelConfig, stack: str) -> list[tuple[str, str]]:
    """The "encoder", "decoder" or "global" stack's layers in order, as
    (prefix, kind): an "mlstm" (backbone: "attn") then an "ffn" per layer.
    The prefixes name the parameters, so the plan fixes the checkpoint's
    tensor table; no other code builds a layer's name."""
    mixer = "attn" if stack == "global" else "mlstm"
    n = getattr(cfg, f"{stack}_layers")
    return [(f"{stack}.{l}.{kind}", kind) for l in range(n) for kind in (mixer, "ffn")]


def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape))


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _init_stack(p: dict, cfg: ModelConfig, rng, stack: str) -> None:
    """The parameters of one stack's layers, drawn in plan order. Each
    residual output projection starts at std 0.02 / sqrt(plan length)."""
    d, heads, plan = cfg.d, cfg.mlstm_heads, layer_plan(cfg, stack)
    out_std = 0.02 * (1.0 / np.sqrt(len(plan)))
    for prefix, kind in plan:
        p[f"{prefix}.norm_g"] = _ones((d,))
        if kind == "mlstm":
            qk, v = heads * cfg.mlstm_qk_dim, heads * cfg.mlstm_v_dim
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
            p[f"{prefix}.w_out"] = _normal(rng, (v, d), std=out_std)
        elif kind == "attn":
            width = cfg.global_heads * cfg.global_head_dim
            p[f"{prefix}.w_q"] = _normal(rng, (d, width))
            p[f"{prefix}.w_k"] = _normal(rng, (d, width))
            p[f"{prefix}.w_v"] = _normal(rng, (d, width))
            p[f"{prefix}.w_o"] = _normal(rng, (width, d), std=out_std)
        else:
            p[f"{prefix}.w_gate"] = _normal(rng, (d, cfg.ffn_hidden))
            p[f"{prefix}.w_up"] = _normal(rng, (d, cfg.ffn_hidden))
            p[f"{prefix}.w_down"] = _normal(rng, (cfg.ffn_hidden, d), std=out_std)
    if stack == "global":
        p["global.final_norm_g"] = _ones((d,))


def init_teacher(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """A plain subword LM sharing the transformer backbone layout: token
    embedding, global stack, linear head over the subword vocabulary."""
    p: dict[str, Tensor] = {}
    p["subword_embed.table"] = _normal(rng, (cfg.vocab_size, cfg.d))
    _init_stack(p, cfg, rng, "global")
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
    _init_stack(p, cfg, rng, "encoder")
    p["boundary.w_q"] = _normal(rng, (cfg.d, cfg.d))
    p["boundary.w_k"] = _normal(rng, (cfg.d, cfg.d))
    if teacher is not None:
        for name, t in teacher.component("global").items():
            p[name] = Tensor(t.data.copy())
    else:
        _init_stack(p, cfg, rng, "global")
    # zero depool projection: at initialization the decoder sees pure patch
    # representations, matching the transplanted backbone's output space
    p["depool_proj.w"] = _zeros((cfg.d, cfg.d))
    p["start_vector.v"] = _zeros((cfg.d,))
    _init_stack(p, cfg, rng, "decoder")
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


def _run_blocks(params: ParamStore, cfg: ModelConfig, x: Tensor, plan: list[tuple[str, str]]) -> Tensor:
    """The block form of the plan's layers, in order."""
    for prefix, kind in plan:
        if kind == "mlstm":
            x = L.mlstm_block(params, prefix, x, cfg.mlstm_heads, cfg.mlstm_qk_dim, cfg.mlstm_v_dim)
        elif kind == "attn":
            x = L.attention_block(params, prefix, x, cfg.global_heads, cfg.global_head_dim)
        else:
            x = L.ffn_block(params, prefix, x)
    return x


def local_encode(params: ParamStore, cfg: ModelConfig, e: Tensor) -> Tensor:
    return _run_blocks(params, cfg, e, layer_plan(cfg, "encoder"))


def local_decode(params: ParamStore, cfg: ModelConfig, z: Tensor) -> Tensor:
    return _run_blocks(params, cfg, z, layer_plan(cfg, "decoder"))


def predict_boundaries(params: ParamStore, cfg: ModelConfig, e_hat: Tensor) -> Tensor:
    """Boundary score per byte as half the cosine distance between projections
    of two adjacent representations: the pair (t, t+1) scores the boundary
    after byte t, i.e. one byte of future context, and the final position
    (no future byte) is a forced constant boundary."""
    q = T.matmul(e_hat[:, 1:, :], params["boundary.w_q"])
    k = T.matmul(e_hat[:, :-1, :], params["boundary.w_k"])
    ones = Tensor(np.ones((e_hat.shape[0], 1), dtype=e_hat.dtype), _op="const")
    return T.concat([_cosine_score(q, k), ones], axis=1)


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


def pad_rows(rows: list[np.ndarray], width: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Ragged rows zero-filled to one (B, width, ...) array of `dtype`, and
    valid (B, width), true on each row's own entries."""
    valid = np.arange(width) < np.array([len(r) for r in rows])[:, None]
    padded = np.zeros(valid.shape + np.shape(rows[0])[1:], dtype=dtype)
    for i, r in enumerate(rows):
        padded[i, : len(r)] = r  # a row longer than `width` raises ValueError
    return padded, valid


def pool_indices(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pad per-row boundary positions to the max patch count. Returns
    (ends (B, P), valid (B, P)); padded slots index position 0 and are
    excluded downstream by `valid`."""
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    counts = mask.sum(axis=1)
    if counts.min() == 0:
        raise ValueError("a row has no boundary; the final byte must be one")
    return pad_rows([np.flatnonzero(r) for r in mask], int(counts.max()), np.int64)


def pool_last(e_hat: Tensor, ends: np.ndarray) -> Tensor:
    """Patch representation = the encoder state at each patch's last byte."""
    return T.gather_rows(e_hat, ends)


def global_forward(params: ParamStore, cfg: ModelConfig, h: Tensor) -> tuple[Tensor, Tensor]:
    """Transformer over patch positions. Returns the post-norm output and the
    intermediate activations after `cfg.n_probe` layers (the input when 0)."""
    plan = layer_plan(cfg, "global")
    probe = _run_blocks(params, cfg, h, plan[: 2 * cfg.n_probe])
    x = _run_blocks(params, cfg, probe, plan[2 * cfg.n_probe :])
    return L.rms(x, params["global.final_norm_g"]), probe


def transformer_probe(params: ParamStore, cfg: ModelConfig, h: Tensor) -> Tensor:
    """Only the first `cfg.n_probe` backbone layers (the identity when 0):
    everything the encoder-matching loss needs, without the full stack."""
    return _run_blocks(params, cfg, h, layer_plan(cfg, "global")[: 2 * cfg.n_probe])


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
    h_hat, _ = global_forward(params, cfg, h)
    z = depool(params, cfg, e_hat, h_hat, mask)
    z_hat = local_decode(params, cfg, z)
    logprobs = lm_head_fused(params, cfg, z_hat)
    return {"p": p, "mask": mask, "ends": ends, "valid": valid, "logprobs": logprobs}
