(** Canonical binary codec for stored results.

    Every artifact the store holds is one {e frame}:

    {v
    offset 0   magic   "PSNS"                 (4 bytes)
    offset 4   version u16, little-endian     (currently 1)
    offset 6   kind    u8                     (manifest/trace/outcome/...)
    offset 7   length  u32, little-endian     (payload bytes)
    offset 11  payload
    offset 11+length  crc32  u32, little-endian
    v}

    The CRC (IEEE 802.3 polynomial) covers everything after the magic
    — version, kind, length and payload — so flipping any single byte
    of a frame is detected. Decoding never raises: every failure comes
    back as an {!error} carrying the byte offset where the check
    failed, which is what [store verify] reports.

    The encoding is {e canonical}: a value has exactly one byte
    representation (fixed field order, little-endian integers, IEEE-754
    bit patterns for floats — NaN payloads included), so content hashes
    of the encoding are stable and [encode (decode s) = s] for every
    valid frame. Explicitly {e not} [Marshal]: marshalled bytes depend
    on the compiler version and value sharing, which would silently
    re-key the whole store (the [marshal] lint rule bans it in [lib/]).

    Bumping {!version} invalidates every existing entry at decode time
    (and {!Key} folds the version into cache keys, so stale entries are
    simply never looked up again and can be [gc]'d). *)

type kind =
  | Manifest  (** The store's index frame. *)
  | Trace  (** A contact trace — hashed for keys, storable as data. *)
  | Outcome  (** One {!Psn_sim.Engine.outcome} (a per-seed run). *)
  | Metrics  (** One {!Psn_sim.Metrics.t} summary row. *)
  | Enumeration  (** One {!Psn_paths.Enumerate.result}. *)
  | Blob  (** Opaque caller bytes (serve-session snapshots). *)

val version : int
(** Format version written into (and required of) every frame. *)

val equal_kind : kind -> kind -> bool

val kind_name : kind -> string
(** ["manifest"], ["trace"], ... for diagnostics. *)

type error = {
  offset : int;  (** Byte offset in the frame where the check failed. *)
  reason : string;
}

(** {1 Artifact frames}

    Each [encode_x] returns a complete frame; each [decode_x] accepts
    exactly one frame of the matching kind ([Error] on any other kind,
    truncation, bad CRC or malformed payload — never an exception). *)

val encode_trace : Psn_trace.Trace.t -> string
val decode_trace : string -> (Psn_trace.Trace.t, error) result
val encode_outcome : Psn_sim.Engine.outcome -> string
val decode_outcome : string -> (Psn_sim.Engine.outcome, error) result
val encode_metrics : Psn_sim.Metrics.t -> string
val decode_metrics : string -> (Psn_sim.Metrics.t, error) result
val encode_enumeration : Psn_paths.Enumerate.result -> string
val decode_enumeration : string -> (Psn_paths.Enumerate.result, error) result

val encode_blob : string -> string
(** Wraps the caller's bytes verbatim in a {!Blob} frame. The payload
    has no codec-level structure — only the frame's length and CRC
    checks apply. Canonicity therefore rests on the caller producing
    canonical bytes (the serve layer's snapshot text does). *)

val decode_blob : string -> (string, error) result

(** {1 The manifest frame}

    The store's index: logical access clock, lifetime hit/miss
    counters and one row per entry. Access stamps are ticks of the
    clock, never wall time — eviction order must be a function of the
    store's history, not of when it ran. *)

type manifest_entry = {
  e_key : string;  (** 16-char hex cache key (the entry's file name). *)
  e_kind : kind;
  e_size : int;  (** Frame size on disk, bytes. *)
  e_last_access : int64;  (** Clock value at last hit or write. *)
}

type manifest = {
  m_clock : int64;
  m_hits : int64;
  m_misses : int64;
  m_entries : manifest_entry list;
}

val encode_manifest : manifest -> string
val decode_manifest : string -> (manifest, error) result

(** {1 Verification} *)

val verify_frame : string -> (kind, error) result
(** Full fsck of one frame: header, CRC, and a complete payload decode
    for whatever kind the frame declares. *)
