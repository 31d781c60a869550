"""Engine and tool-executor state machines.

An engine's KV budget is consumed by resident stage prefixes plus each
in-flight call's prompt and generated tokens.  Admission reserves the
worst case (prompt + full target output, plus the prefix if cold) so
actual usage can never overrun capacity mid-decode; `kv_used` tracks
actual usage, which grows one token per emitted token and is released
when the call completes.

An engine's state is brought forward only when the simulator touches it
(`advance_decode`).  Between two touches its batch does not change, so
every decode call emits tokens at the same constant rate and `kv_used`
grows linearly at `kv_slope()`; `kv_used_at(t)` and `decode_progress(t)`
read that line without moving the engine.

Decoding is continuous-batching style: all decode-phase calls on an
engine share the batch, and per-token latency grows linearly with batch
size, t(b) = t0 * (1 + alpha * (b - 1)).  Prefill is a non-batched linear
cost and does not count toward the decode batch.

An engine checks itself (`check`): `kv_reserved` within capacity;
`kv_used_at(now)` within [0, capacity]; `resident_tokens`, `kv_used` and
`kv_reserved` equal to their recounts from the prefixes and the batch; at
most `max_batch` calls; no decode call past its target at `now`; every
call of a stage its pool serves; `n_decode` equal to the decode calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInvariantViolation


PREFILL = "prefill"
DECODE = "decode"
_KV_TOL = 1e-6  # tokens of float residue the KV checks forgive


class AdmitWithoutCapacity(InternalInvariantViolation):
    """admit() was called although can_admit() is false (programming error)."""


class PrefixInUse(InternalInvariantViolation):
    """Attempted to evict a stage prefix while its calls are in flight."""


class _TokenTimes(dict):
    """Batch size -> `params.token_time(size)`, each size filled on its
    first read.  It and its params refer to each other, a cycle the cyclic
    GC frees; a config builds a few params, never one per event or engine."""

    __slots__ = ("params",)

    def __init__(self, params: EngineParams) -> None:
        super().__init__()
        self.params = params

    def __missing__(self, batch_size: int) -> float:
        t = self[batch_size] = self.params.token_time(batch_size)
        return t


@dataclass(frozen=True)
class EngineParams:
    """An engine's capacity and speed.

    `token_times[b]` is `token_time(b)`, the one formula, computed once per
    batch size on its first read and kept: decode reads it on every touch.
    It holds only the sizes read so far, so a `max_batch` of 10**9 costs
    nothing up front, and it is an attribute, not a field: equality,
    hashing, `replace` and the config keys see the five fields only."""

    kv_capacity_tokens: int
    prefill_rate: float  # tokens / second
    base_token_time: float  # seconds per token at batch size 1
    batch_slope: float  # marginal per-token slowdown per extra batch mate
    max_batch: int

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not self.kv_capacity_tokens > 0:
            raise ValueError("kv_capacity_tokens must be positive")
        if not self.prefill_rate > 0:
            raise ValueError("prefill_rate must be positive")
        if not self.base_token_time > 0:
            raise ValueError("base_token_time must be positive")
        if not self.batch_slope >= 0:
            raise ValueError("batch_slope must be >= 0")
        if not self.max_batch >= 1:
            raise ValueError("max_batch must be >= 1")
        object.__setattr__(self, "token_times", _TokenTimes(self))

    def token_time(self, batch_size: int) -> float:
        """Per-token seconds at the given decode batch size."""
        return self.base_token_time * (1.0 + self.batch_slope * (batch_size - 1))


@dataclass(slots=True, eq=False)
class PendingCall:
    """A stage call, from its pool queue until it leaves its engine's batch.

    It compares by identity: two calls with equal fields are still two
    calls, and `EngineState.complete_call` removes the very object."""

    request_id: int
    stage_id: str
    enqueue_time: float
    prompt_tokens: int = 0
    target_output_tokens: int = 0
    tokens_emitted: float = 0.0
    phase: str = PREFILL

    @property
    def remaining_tokens(self) -> float:
        return self.target_output_tokens - self.tokens_emitted


@dataclass(slots=True)
class ResidentPrefix:
    tokens: int
    last_used: float


class EngineState:
    """One engine: resident prefixes, an active batch, and KV accounting."""

    __slots__ = (
        "engine_id",
        "params",
        "home_pool",
        "serving_pool",
        "resident",
        "batch",
        "kv_used",
        "kv_reserved",
        "n_decode",
        "resident_tokens",
        "decode_epoch",
        "last_advance",
        "horizon",
    )

    def __init__(self, engine_id: int, params: EngineParams, home_pool: str) -> None:
        self.engine_id = engine_id
        self.params = params
        self.home_pool = home_pool
        # the pool it serves: home_pool, or the borrower's while lent; a
        # borrow or a return assigns it
        self.serving_pool = home_pool
        self.resident: dict[str, ResidentPrefix] = {}
        self.batch: list[PendingCall] = []
        self.kv_used = 0.0  # actual: prefixes + prompts + emitted tokens
        self.kv_reserved = 0  # worst case: prefixes + prompts + full targets
        self.n_decode = 0  # calls of the batch in the decode phase
        self.resident_tokens = 0  # sum of the resident prefixes' tokens
        self.decode_epoch = 0  # bumped on every decode-batch composition change
        self.last_advance = 0.0
        self.horizon = -1.0  # until when `check` passes untouched; -1: unchecked

    @property
    def lent_to(self) -> str | None:
        """The pool this engine is lent to, or None while it serves at home."""
        serving = self.serving_pool
        return None if serving == self.home_pool else serving

    def resident_prefix_tokens(self) -> int:
        """Recount of `resident_tokens`."""
        tokens = 0
        for prefix in self.resident.values():
            tokens += prefix.tokens
        return tokens

    def decode_batch_size(self) -> int:
        # only perfbench/tracer.py's `decoding` hook calls it; ROADMAP item 1 deletes it
        return self.n_decode

    def decode_progress(self, now: float) -> float:
        """Tokens each decode call has emitted since `last_advance`, at `now`."""
        b = self.n_decode
        if not b:
            return 0.0
        return (now - self.last_advance) / self.params.token_times[b]

    def kv_used_at(self, now: float) -> float:
        """`kv_used` at `now`, read without advancing the engine."""
        return self.kv_used + self.n_decode * self.decode_progress(now)

    def kv_slope(self) -> float:
        """Tokens per second `kv_used` grows by until the batch changes."""
        b = self.n_decode
        return b / self.params.token_times[b] if b else 0.0

    def free_kv(self) -> int:
        return self.params.kv_capacity_tokens - self.kv_reserved

    def kv_demand(self, call: PendingCall, prefix_tokens: int) -> int:
        """Worst-case KV the call needs: prompt + target output, plus the
        stage prefix when it is not already resident."""
        demand = call.prompt_tokens + call.target_output_tokens
        if call.stage_id not in self.resident:
            demand += prefix_tokens
        return demand

    def can_admit(self, call: PendingCall, prefix_tokens: int) -> bool:
        if len(self.batch) >= self.params.max_batch:
            return False
        return self.kv_reserved + self.kv_demand(call, prefix_tokens) <= self.params.kv_capacity_tokens

    def admit(self, call: PendingCall, prefix_tokens: int, now: float) -> float:
        """Admit a call into the batch; returns its prefill-done time."""
        if not self.can_admit(call, prefix_tokens):
            raise AdmitWithoutCapacity(
                f"engine {self.engine_id} cannot admit request {call.request_id} stage {call.stage_id}"
            )
        cold_tokens = 0
        if call.stage_id in self.resident:
            self.resident[call.stage_id].last_used = now
        else:
            cold_tokens = prefix_tokens
            self.resident[call.stage_id] = ResidentPrefix(prefix_tokens, now)
            self.resident_tokens += prefix_tokens
            self.kv_used += prefix_tokens
            self.kv_reserved += prefix_tokens
        self.batch.append(call)
        self.kv_used += call.prompt_tokens
        self.kv_reserved += call.prompt_tokens + call.target_output_tokens
        return now + (call.prompt_tokens + cold_tokens) / self.params.prefill_rate

    def prefill_finished(self, call: PendingCall) -> None:
        call.phase = DECODE
        self.n_decode += 1
        self.decode_epoch += 1

    def advance_decode(self, to_time: float) -> None:
        """Advance fractional decode progress to `to_time`.

        The caller guarantees batch composition is constant over the
        interval; progress is exact in fractional tokens so consecutive
        segments add up without drift.
        """
        dt = to_time - self.last_advance
        if dt < 0:
            raise ValueError("advance_decode must not move backwards")
        self.last_advance = to_time
        if dt == 0.0:
            return
        b = self.n_decode
        if b == 0:
            return
        per_call = dt / self.params.token_times[b]
        kv_used = self.kv_used
        for call in self.batch:
            if call.phase != DECODE:
                continue
            remaining = call.target_output_tokens - call.tokens_emitted
            emitted = remaining if remaining < per_call else per_call
            call.tokens_emitted += emitted
            kv_used += emitted
        self.kv_used = kv_used

    def next_completion(self, now: float) -> tuple[PendingCall, float] | None:
        """Earliest-finishing decode call (ties: lowest request id) and its
        completion time under the current batch size."""
        if not self.n_decode:
            return None
        call = None
        fewest = math.inf  # tokens `call` has left
        for c in self.batch:
            if c.phase != DECODE:
                continue
            left = c.target_output_tokens - c.tokens_emitted
            if left < fewest or (left == fewest and c.request_id < call.request_id):
                call, fewest = c, left
        return call, now + fewest * self.params.token_times[self.n_decode]

    def complete_call(self, call: PendingCall) -> None:
        """Release a finished call's tokens and drop it from the batch."""
        snap = call.target_output_tokens - call.tokens_emitted
        call.tokens_emitted = float(call.target_output_tokens)
        self.kv_used += snap
        self.kv_used -= call.prompt_tokens + call.target_output_tokens
        self.kv_reserved -= call.prompt_tokens + call.target_output_tokens
        self.batch.remove(call)
        if call.phase == DECODE:
            self.n_decode -= 1
        if not self.n_decode:
            # Nothing decodes, so kv_used is a whole number of tokens: recount
            # it, dropping the float residue of adding and releasing emitted
            # tokens, lest routing ties between idle engines (`route_call`
            # orders by kv_used) turn on how decode was split into segments.
            self.kv_used = float(self.resident_tokens + sum(c.prompt_tokens for c in self.batch))
        self.decode_epoch += 1

    def find_call(self, request_id: int) -> PendingCall:
        for call in self.batch:
            if call.request_id == request_id:
                return call
        raise InternalInvariantViolation(f"request {request_id} not in engine {self.engine_id} batch")

    def has_active_calls(self, stage_id: str) -> bool:
        """Whether a call of the stage is in the batch: its prefix is in use."""
        for c in self.batch:
            if c.stage_id == stage_id:
                return True
        return False

    def evict_idle_prefix(self, stage_id: str) -> None:
        """Drop a resident prefix; no-op when absent, error when in use."""
        if self.has_active_calls(stage_id):
            raise PrefixInUse(f"stage '{stage_id}' has active calls on engine {self.engine_id}")
        prefix = self.resident.pop(stage_id, None)
        if prefix is not None:
            self.resident_tokens -= prefix.tokens
            self.kv_used -= prefix.tokens
            self.kv_reserved -= prefix.tokens

    def evictable_prefixes(self, keep_stage: str) -> list[tuple[float, str, int]]:
        """Idle resident prefixes, least recently used first."""
        out = [
            (p.last_used, sid, p.tokens)
            for sid, p in self.resident.items()
            if sid != keep_stage and not self.has_active_calls(sid)
        ]
        out.sort()
        return out

    def check(self, now: float, stages: tuple[str, ...]) -> None:
        """Recount the engine, which serves a pool of `stages`.  It is read
        at `now` through its segment, never advanced: its counters are
        recounted at the segment start, where they were last brought
        forward, and its KV and each decode call's tokens are checked at
        `now`, where they have grown by `decode_progress`.  Then store its
        safe horizon, the last time at which those two checks still pass
        while nothing touches it."""
        eid = self.engine_id
        cap = self.params.kv_capacity_tokens
        progress = self.decode_progress(now)
        kv_used = self.kv_used + self.n_decode * progress  # kv_used_at(now)
        if self.kv_reserved > cap:
            raise InternalInvariantViolation(
                f"engine {eid}: reserved {self.kv_reserved} exceeds capacity {cap}"
            )
        if kv_used > cap + _KV_TOL or kv_used < -_KV_TOL:
            raise InternalInvariantViolation(
                f"engine {eid}: kv_used {kv_used} outside [0, {cap}]"
            )
        prefix_tokens = self.resident_prefix_tokens()
        if self.resident_tokens != prefix_tokens:
            raise InternalInvariantViolation(
                f"engine {eid}: resident_tokens {self.resident_tokens} != recomputed"
            )
        recomputed = self.recomputed_kv_used(prefix_tokens)
        if abs(self.kv_used - recomputed) > _KV_TOL:
            raise InternalInvariantViolation(
                f"engine {eid}: kv_used {self.kv_used} != recomputed {recomputed}"
            )
        if self.kv_reserved != self.recomputed_kv_reserved(prefix_tokens):
            raise InternalInvariantViolation(
                f"engine {eid}: kv_reserved {self.kv_reserved} != recomputed"
            )
        if len(self.batch) > self.params.max_batch:
            raise InternalInvariantViolation(f"engine {eid}: batch over max_batch")
        n_decode = 0
        fewest = math.inf  # tokens the closest-to-done decode call may still emit
        for call in self.batch:
            if call.phase == DECODE:
                n_decode += 1
                # a call never outruns its own completion event
                if call.tokens_emitted + progress > call.target_output_tokens + _KV_TOL:
                    raise InternalInvariantViolation(
                        f"engine {eid}: request {call.request_id} decoded past its "
                        f"{call.target_output_tokens} tokens"
                    )
                left = call.target_output_tokens - call.tokens_emitted
                if left < fewest:
                    fewest = left
            if call.stage_id not in stages:
                raise InternalInvariantViolation(
                    f"engine {eid}: call of stage '{call.stage_id}' in "
                    f"pool '{self.serving_pool}'"
                )
        if self.n_decode != n_decode:
            raise InternalInvariantViolation(
                f"engine {eid}: n_decode {self.n_decode} != recounted {n_decode}"
            )
        if not n_decode:
            self.horizon = math.inf  # nothing at the clock moves
            return
        # the progress at which a call would pass its target, or KV its
        # capacity, as a time, taken a hair early against rounding
        tokens = min(fewest + _KV_TOL, (cap + _KV_TOL - self.kv_used) / n_decode)
        self.horizon = self.last_advance + self.params.token_times[n_decode] * tokens * (1.0 - 1e-9)

    # The recounts below are plain loops: `check` runs them for every
    # engine an event touched, after the event.  `prefix_tokens` is
    # `resident_prefix_tokens()`, which `check` recounts once for both.

    def recomputed_kv_used(self, prefix_tokens: int) -> float:
        """Recount of `kv_used`, at `last_advance`."""
        used = 0
        for c in self.batch:
            used += c.prompt_tokens + c.tokens_emitted
        return prefix_tokens + used

    def recomputed_kv_reserved(self, prefix_tokens: int) -> int:
        reserved = 0
        for c in self.batch:
            reserved += c.prompt_tokens + c.target_output_tokens
        return prefix_tokens + reserved
