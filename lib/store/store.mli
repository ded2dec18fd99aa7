(** On-disk content-addressed result store.

    Layout under the store directory:

    {v
    manifest.psn          index frame (clock, hit/miss counters, rows)
    ab/cd/abcd0123....psn entry frames, sharded on the key's first
                          two hex-pairs
    v}

    Every write is atomic: the frame goes to a [.tmp] file in the
    entry's shard directory and is renamed into place, so readers (and
    crashes) never observe a torn entry. The manifest is rewritten the
    same way after every insert and gc.

    Crash safety goes further than atomic writes: before an insert's
    rename or a gc unlink, the store appends the intent (["I <hex>"] /
    ["D <hex>"]) to a flushed text journal ([journal.psn]), deleted
    once the subsequent manifest rewrite has made index and shard tree
    agree. {!open_} replays any journal left by a crash — adopting
    committed frames the manifest missed (a committed entry is never
    lost), dropping rows whose frame never landed, completing
    interrupted deletions — and sweeps every orphaned [.tmp] file.
    Replay trusts disk, so it is idempotent under repeated crashes.

    Lookups do not rewrite the manifest. Each appends one line to the
    same journal (["H <hex> <stamp>"] for a hit, ["M <hex> <stamp>"]
    for a miss, [stamp] the lookup's logical clock tick), and
    {!open_} replays those lines over the manifest: clock, hit and
    miss counters, access stamps and dropped rows come back exactly as
    the lookups left them in memory. Lines the manifest already covers
    are skipped, so this replay is idempotent too. Once a handle's
    lookup lines outnumber its index rows, the next lookup folds them
    into one manifest rewrite and deletes the journal; so a lookup
    costs O(1) amortised, and the journal holds at most about one line
    per entry.

    The dangerous windows are named {!Psn_robust.Failpoint} sites
    ([store.insert.pre_journal], [store.insert.pre_rename],
    [store.insert.post_rename], [store.gc.pre_remove],
    [store.gc.post_remove], [store.manifest.pre_rename], and
    [store.lookup.pre_fold] between a lookup's journal line and its
    fold); the crash matrix test kills the process at each and asserts
    {!verify} is clean on reopen.

    A corrupt entry is never fatal anywhere: {!find_outcome} and
    {!find_enumeration} treat it as a miss (the caller recomputes and
    the subsequent put overwrites — self-repair), and {!verify}
    reports it with its path and the failing byte offset.

    Access stamps and eviction order come from a logical clock that
    ticks once per store operation — never wall time — so [gc] is a
    deterministic function of the store's history.

    The store is single-process, single-writer: callers in one process
    must funnel operations through one [t] from one domain (the runner
    integration queries before and stores after its parallel section,
    from the calling domain). *)

type t

val open_ : ?telemetry:Psn_telemetry.Telemetry.sink -> dir:string -> unit -> t
(** Open (creating the directory if needed) the store at [dir]. First
    sweeps orphaned [.tmp] files, then loads the manifest; if it is
    missing or corrupt, rebuilds the index by scanning the shard
    directories and verifying each frame, dropping undecodable
    entries. Then replays the journal over it (see above) and folds:
    the manifest is rewritten and the journal deleted. The fold runs
    only when the open recovered something (a journal, swept [.tmp]
    files or a rescanned index); opening a clean store writes nothing.
    Raises [Sys_error] only if [dir] cannot be created or read at all.

    [telemetry] (default null) records ["store.lookup"] /
    ["store.insert"] / ["store.gc"] spans and counters for hits,
    misses, inserts, corrupt-frame self-repairs, bytes read/written,
    gc evictions, plus ["store.tmp_swept"] and
    ["store.journal_replays"] when recovery found work at open.
    Recording happens on the calling domain's track
    — consistent with the single-domain contract below — and never
    changes what the store returns. *)

val dir : t -> string

(** {1 Memoization} *)

val find_outcome : t -> Key.t -> Psn_sim.Engine.outcome option
(** [None] on a missing, undecodable or wrong-kind entry; every call
    counts as a hit or a miss in {!stats}.

    Durability (every [find_*]): when the call returns, its journal
    line has been written and the file closed, the same guarantee a
    manifest rewrite gave. A process killed at any later point loses
    none of the lookup's bookkeeping: the next {!open_} replays it
    into the hit or miss counter, the clock and the entry's access
    stamp. A crash while the line is being written loses only that
    lookup's record, as a torn final line is ignored. *)

val put_outcome : t -> Key.t -> Psn_sim.Engine.outcome -> unit
(** Atomically (over)write the entry for this key. *)

val find_enumeration : t -> Key.t -> Psn_paths.Enumerate.result option
val put_enumeration : t -> Key.t -> Psn_paths.Enumerate.result -> unit

val find_blob : t -> Key.t -> string option
(** Opaque-bytes entries, typically under {!Key.named} slots. Same
    miss semantics as the typed finders: a corrupt or wrong-kind frame
    reads as absent. *)

val put_blob : t -> Key.t -> string -> unit
(** Atomically (over)write opaque bytes — [psn serve] session
    snapshots live here. *)

(** {1 Maintenance} *)

type stats = {
  entries : int;
  bytes : int;  (** Sum of entry frame sizes (manifest excluded). *)
  hits : int64;  (** Lifetime, persisted in the manifest. *)
  misses : int64;
  hit_rate : float option;
      (** [hits / (hits + misses)], [None] before the first lookup.
          Computed here once; the CLI's [store stats] output and the
          profile report both reuse this field. *)
  tmp_swept : int;
      (** Orphaned [.tmp] files removed when this handle was opened. *)
  journal_replays : int;
      (** [I]/[D] journal intents replayed when this handle was opened
          — zero unless the previous process died mid-insert or
          mid-gc. Lookup lines are not counted: they are the normal
          record of a run that exited between folds. *)
}

val stats : t -> stats

type gc_report = {
  evicted : int;
  freed_bytes : int;
  kept : int;
  kept_bytes : int;
}

val gc : t -> max_bytes:int -> gc_report
(** Evict least-recently-used entries (by logical access stamp, ties
    broken by key hex) until at most [max_bytes] of entry data
    remain. [gc ~max_bytes:0] empties the store. *)

type fsck_error = {
  fsck_path : string;  (** Path relative to the store directory. *)
  fsck_offset : int;  (** Byte offset of the failed check. *)
  fsck_reason : string;
}

type fsck_report = {
  checked : int;
  ok : int;
  fsck_errors : fsck_error list;  (** Sorted by path. *)
}

val verify : t -> fsck_report
(** Fully decode every entry on disk ({!Codec.verify_frame}) plus the
    manifest, reporting — never raising on — every corrupt frame.
    Also flags entries present on disk but missing from the index and
    vice versa. *)
