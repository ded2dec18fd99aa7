module Det_tbl = Psn_det.Det_tbl
module T = Psn_telemetry.Telemetry
module Failpoint = Psn_robust.Failpoint
module Flight = Psn_robust.Flight

type entry = {
  kind : Codec.kind;
  size : int;
  mutable last_access : int64;
}

type t = {
  dir : string;
  tbl : (string, entry) Hashtbl.t;  (* hex key -> entry *)
  mutable clock : int64;  (* logical access clock; never wall time *)
  mutable hits : int64;
  mutable misses : int64;
  mutable logged : int;  (* lookup lines journaled since the last fold *)
  tmp_swept : int;  (* orphaned .tmp files removed at open *)
  journal_replays : int;  (* I/D intents replayed at open *)
  telemetry : T.sink;
      (* Recording sink; describes operations, never steers them. The
         store is single-domain (see .mli), so the caller's sink is
         safe to keep. *)
}

let dir t = t.dir

let tick st =
  st.clock <- Int64.add st.clock 1L;
  st.clock

(* ---- paths ---------------------------------------------------------- *)

let manifest_name = "manifest.psn"
let manifest_path dir = Filename.concat dir manifest_name

let journal_name = "journal.psn"
let journal_path dir = Filename.concat dir journal_name

let entry_rel hex =
  Filename.concat (String.sub hex 0 2)
    (Filename.concat (String.sub hex 2 2) (hex ^ ".psn"))

let entry_path st hex = Filename.concat st.dir (entry_rel hex)

let rec ensure_dir path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if String.length parent < String.length path then ensure_dir parent;
    match Sys.mkdir path 0o755 with
    | () -> ()
    | exception Sys_error _ ->
      (* lost a race or the parent reappeared: only fatal if the path
         still isn't a directory *)
      if not (Sys.is_directory path) then
        raise (Sys_error (path ^ ": cannot create directory"))
  end

(* ---- raw file I/O --------------------------------------------------- *)

let read_file path =
  match In_channel.open_bin path with
  | ic ->
    let data = In_channel.input_all ic in
    In_channel.close ic;
    Some data
  | exception Sys_error _ -> None

(* [fp] names the failpoint site between the temp write and the
   commit rename — the window a crash matrix must be able to hit. *)
let write_atomic ?fp path data =
  let tmp = path ^ ".tmp" in
  let oc = Out_channel.open_bin tmp in
  Out_channel.output_string oc data;
  Out_channel.close oc;
  (match fp with None -> () | Some site -> Failpoint.trigger site);
  Sys.rename tmp path

let remove_quiet path =
  match Sys.remove path with () -> true | exception Sys_error _ -> false

(* ---- intent journal -------------------------------------------------- *)

(* The journal is one text line per record, appended and flushed
   before (for intents) or instead of (for lookups) touching the
   manifest:

     I <hex>          an insert is heading for its rename
     D <hex>          gc is about to unlink this entry
     H <hex> <stamp>  a lookup hit, at logical clock [stamp]
     M <hex> <stamp>  a lookup missed, at logical clock [stamp]

   The commit point of every insert or eviction is a rename or unlink;
   the manifest rewrite that follows merely caches the result. So
   after a crash the [I]/[D] intents name exactly the keys whose disk
   state may disagree with the manifest, and replaying them (see
   [open_]) means re-deriving those rows from disk: adopt a verified
   frame the manifest missed, complete a deletion the manifest still
   lists. Replay trusts disk, so it is idempotent — a crash during
   replay or before the journal truncation just replays again.

   A lookup's line is its whole record: replaying it ticks the clock
   to [stamp], bumps the hit or miss counter, and restamps or drops
   the row, exactly as the lookup did in memory. Lines whose stamp
   the manifest's clock already covers were folded before a crash cut
   the journal removal short, and are skipped, so this replay is
   idempotent too. Lookups fold the log (one manifest rewrite, then
   the journal goes) once their lines outnumber the index rows; see
   [log_lookup]. *)

let journal_append st line =
  let oc =
    Out_channel.open_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644 (journal_path st.dir)
  in
  Out_channel.output_string oc line;
  Out_channel.output_char oc '\n';
  Out_channel.close oc

let journal_clear dir = ignore (remove_quiet (journal_path dir))

let is_hex_char c =
  let n = Char.code c in
  (n >= Char.code '0' && n <= Char.code '9')
  || (n >= Char.code 'a' && n <= Char.code 'f')

let is_hex s = String.for_all is_hex_char s

let lookup_line tag hex stamp = Printf.sprintf "%c %s %016Lx" tag hex stamp

(* A crash can tear the final line mid-append; anything that does not
   parse as a full record is ignored (its action never ran, or for a
   lookup, never returned). *)
let parse_journal_line line =
  let n = String.length line in
  if n < 18 || not (Char.equal line.[1] ' ') then None
  else
    let key = String.sub line 2 16 in
    if not (is_hex key) then None
    else
      match (line.[0], n) with
      | 'I', 18 -> Some (`Insert key)
      | 'D', 18 -> Some (`Delete key)
      | (('H' | 'M') as tag), 35 when Char.equal line.[18] ' ' && is_hex (String.sub line 19 16) ->
        let stamp = Int64.of_string ("0x" ^ String.sub line 19 16) in
        Some (if Char.equal tag 'H' then `Hit (key, stamp) else `Miss (key, stamp))
      | _ -> None

let read_journal dir =
  match read_file (journal_path dir) with
  | None -> []
  | Some data -> String.split_on_char '\n' data |> List.filter_map parse_journal_line

(* ---- disk walk ------------------------------------------------------ *)

let sorted_names dir =
  match Sys.readdir dir with
  | arr ->
    Array.sort String.compare arr;
    Array.to_list arr
  | exception Sys_error _ -> []

let is_shard dir name =
  String.length name = 2 && Sys.is_directory (Filename.concat dir name)

(* Visit the two levels of shard directories in path order, each
   first-level directory before the second-level ones inside it.
   [f ~leaf rel] gets the directory's path relative to the store root;
   [leaf] marks the second level, which holds the entry frames. *)
let iter_shards dir f =
  List.iter
    (fun s1 ->
      if is_shard dir s1 then begin
        f ~leaf:false s1;
        let d1 = Filename.concat dir s1 in
        List.iter
          (fun s2 -> if is_shard d1 s2 then f ~leaf:true (Filename.concat s1 s2))
          (sorted_names d1)
      end)
    (sorted_names dir)

(* Visit every entry frame under the shard directories in path order.
   [f ~rel ~data] gets the path relative to the store root and the raw
   bytes ([None] if the file vanished or is unreadable). *)
let walk_entries dir f =
  iter_shards dir (fun ~leaf shard ->
      if leaf then
        List.iter
          (fun file ->
            if Filename.check_suffix file ".psn" then
              let rel = Filename.concat shard file in
              f ~rel ~data:(read_file (Filename.concat dir rel)))
          (sorted_names (Filename.concat dir shard)))

(* A crash between a temp write and its rename strands a [.tmp] file;
   such a file is garbage by construction (its frame was never
   committed), so opening the store removes every one — store root
   (the manifest's temp) and both shard levels. *)
let sweep_tmp dir =
  let count = ref 0 in
  let sweep_dir d =
    List.iter
      (fun name ->
        if Filename.check_suffix name ".tmp" && remove_quiet (Filename.concat d name)
        then incr count)
      (sorted_names d)
  in
  sweep_dir dir;
  iter_shards dir (fun ~leaf:_ shard -> sweep_dir (Filename.concat dir shard));
  !count

(* ---- manifest ------------------------------------------------------- *)

let save_manifest st =
  let m_entries =
    Det_tbl.bindings ~cmp:String.compare st.tbl
    |> List.map (fun (hex, e) ->
           {
             Codec.e_key = hex;
             e_kind = e.kind;
             e_size = e.size;
             e_last_access = e.last_access;
           })
  in
  let m =
    {
      Codec.m_clock = st.clock;
      m_hits = st.hits;
      m_misses = st.misses;
      m_entries;
    }
  in
  write_atomic ~fp:"store.manifest.pre_rename" (manifest_path st.dir)
    (Codec.encode_manifest m)

(* Rebuild the index from disk: every frame that fully verifies gets a
   row with its access stamp reset to zero. Deterministic — depends
   only on directory contents, not on scan time. *)
let rescan dir tbl =
  walk_entries dir (fun ~rel ~data ->
      match data with
      | None -> ()
      | Some data -> (
        match Codec.verify_frame data with
        | Error (_ : Codec.error) -> ()
        | Ok kind ->
          let hex = Filename.remove_extension (Filename.basename rel) in
          Hashtbl.replace tbl hex
            { kind; size = String.length data; last_access = 0L }))

(* Bring the index back in line with the shard tree after an
   interrupted operation, replaying the journal in order over the
   manifest's state. For each [I]/[D] intent disk is the truth. An [I]
   whose frame landed (rename happened, manifest write did not) is
   adopted so no committed entry is ever lost; an [I] whose frame is
   absent or torn never committed, so any stale row goes. A [D] is
   completed — the unlink is re-issued (idempotent) and the row
   dropped. [H]/[M] lines redo their lookup's bookkeeping (see the
   journal notes above). *)
let replay_journal st records =
  let verified_row path =
    Option.bind (read_file path) (fun data ->
        match Codec.verify_frame data with
        | Ok kind -> Some { kind; size = String.length data; last_access = 0L }
        | Error (_ : Codec.error) -> None)
  in
  (* A lookup line the manifest's clock already covers was folded. *)
  let unfolded stamp redo =
    if Int64.compare stamp st.clock > 0 then begin
      st.clock <- stamp;
      redo ()
    end
  in
  List.iter
    (fun record ->
      match record with
      | `Insert hex -> (
        let path = entry_path st hex in
        match verified_row path with
        | Some row -> if not (Hashtbl.mem st.tbl hex) then Hashtbl.replace st.tbl hex row
        | None ->
          ignore (remove_quiet path);
          Hashtbl.remove st.tbl hex)
      | `Delete hex ->
        ignore (remove_quiet (entry_path st hex));
        Hashtbl.remove st.tbl hex
      | `Hit (hex, stamp) ->
        unfolded stamp (fun () ->
            st.hits <- Int64.add st.hits 1L;
            match Hashtbl.find_opt st.tbl hex with
            | Some e -> e.last_access <- stamp
            | None ->
              Option.iter
                (fun row -> Hashtbl.replace st.tbl hex { row with last_access = stamp })
                (verified_row (entry_path st hex)))
      | `Miss (hex, stamp) ->
        unfolded stamp (fun () ->
            st.misses <- Int64.add st.misses 1L;
            Hashtbl.remove st.tbl hex))
    records

(* Make the manifest agree with memory, then drop the journal: every
   record in it is now covered by the manifest. A crash between the
   two leaves a journal whose replay changes nothing. *)
let fold st =
  save_manifest st;
  journal_clear st.dir;
  st.logged <- 0

let open_ ?(telemetry = T.Sink.null) ~dir () =
  ensure_dir dir;
  let tmp_swept = sweep_tmp dir in
  (* Even a journal whose only line is torn counts: the fold removes
     it, so the next append starts on a fresh line. *)
  let journaled = Sys.file_exists (journal_path dir) in
  let records = read_journal dir in
  let tbl = Hashtbl.create 64 in
  let clock, hits, misses, rescanned =
    match Option.map Codec.decode_manifest (read_file (manifest_path dir)) with
    | None | Some (Error (_ : Codec.error)) ->
      rescan dir tbl;
      (0L, 0L, 0L, true)
    | Some (Ok m) ->
      List.iter
        (fun (e : Codec.manifest_entry) ->
          Hashtbl.replace tbl e.Codec.e_key
            { kind = e.Codec.e_kind; size = e.Codec.e_size; last_access = e.Codec.e_last_access })
        m.Codec.m_entries;
      (m.Codec.m_clock, m.Codec.m_hits, m.Codec.m_misses, false)
  in
  (* Only interrupted inserts and evictions count as recovery; lookup
     lines are the normal record of a run that exited between folds. *)
  let journal_replays =
    List.length
      (List.filter (function `Insert _ | `Delete _ -> true | `Hit _ | `Miss _ -> false) records)
  in
  let st =
    { dir; tbl; clock; hits; misses; logged = 0; tmp_swept; journal_replays; telemetry }
  in
  replay_journal st records;
  (* An open writes only when it recovered something; a clean open
     leaves every byte and mtime alone, so [store stats] and [store
     verify] are read-only. Only after the fold does the journal go:
     the manifest it writes agrees with the shard tree, so there is
     nothing left to replay. A crash anywhere above re-runs the same
     replay against the same disk. *)
  if journaled || tmp_swept > 0 || rescanned then fold st;
  if tmp_swept > 0 then T.count telemetry "store.tmp_swept" tmp_swept;
  if journal_replays > 0 then T.count telemetry "store.journal_replays" journal_replays;
  st

(* ---- memoization ---------------------------------------------------- *)

(* A lookup's durable record is its journal line, not a manifest
   rewrite. The fold rule keeps a lookup O(1) amortised: a fold costs
   O(entries) and comes at most once per [entries + 1] lookups, which
   also bounds the journal (and the replay at open) to about one line
   per entry. With an empty index every lookup folds. *)
let log_lookup st line =
  journal_append st line;
  Failpoint.trigger "store.lookup.pre_fold";
  st.logged <- st.logged + 1;
  if st.logged > Hashtbl.length st.tbl then fold st

let find_with decode ~kind st key =
  T.with_span st.telemetry "store.lookup"
  @@ fun () ->
  let hex = Key.to_hex key in
  let stamp = tick st in
  let found =
    match read_file (entry_path st hex) with
    | None -> None
    | Some data -> (
      match decode data with
      | Ok v -> Some (v, String.length data)
      | Error (_ : Codec.error) ->
        (* undecodable frame: the self-repair path below will drop the
           index row and the caller's put will overwrite it *)
        T.count st.telemetry "store.corrupt_repairs" 1;
        None)
  in
  match found with
  | Some (v, size) ->
    st.hits <- Int64.add st.hits 1L;
    T.count st.telemetry "store.hits" 1;
    T.count st.telemetry "store.bytes_read" size;
    Hashtbl.replace st.tbl hex { kind; size; last_access = stamp };
    log_lookup st (lookup_line 'H' hex stamp);
    Some v
  | None ->
    (* missing or undecodable entry: a miss. Drop any stale index row
       so the store self-repairs; the caller's recompute-and-put
       overwrites the bad frame. *)
    st.misses <- Int64.add st.misses 1L;
    T.count st.telemetry "store.misses" 1;
    Hashtbl.remove st.tbl hex;
    log_lookup st (lookup_line 'M' hex stamp);
    None

let put_with encode ~kind st key v =
  T.with_span st.telemetry "store.insert"
  @@ fun () ->
  let hex = Key.to_hex key in
  let stamp = tick st in
  let data = encode v in
  let path = entry_path st hex in
  ensure_dir (Filename.dirname path);
  Failpoint.trigger "store.insert.pre_journal";
  journal_append st ("I " ^ hex);
  write_atomic ~fp:"store.insert.pre_rename" path data;
  Failpoint.trigger "store.insert.post_rename";
  T.count st.telemetry "store.inserts" 1;
  T.count st.telemetry "store.bytes_written" (String.length data);
  Flight.note "store.insert" [ ("key", hex); ("bytes", string_of_int (String.length data)) ];
  Hashtbl.replace st.tbl hex
    { kind; size = String.length data; last_access = stamp };
  fold st

let find_outcome st key = find_with Codec.decode_outcome ~kind:Codec.Outcome st key
let put_outcome st key v = put_with Codec.encode_outcome ~kind:Codec.Outcome st key v

let find_enumeration st key =
  find_with Codec.decode_enumeration ~kind:Codec.Enumeration st key

let put_enumeration st key v =
  put_with Codec.encode_enumeration ~kind:Codec.Enumeration st key v

let find_blob st key = find_with Codec.decode_blob ~kind:Codec.Blob st key
let put_blob st key v = put_with Codec.encode_blob ~kind:Codec.Blob st key v

(* ---- maintenance ---------------------------------------------------- *)

type stats = {
  entries : int;
  bytes : int;
  hits : int64;
  misses : int64;
  hit_rate : float option;
  tmp_swept : int;
  journal_replays : int;
}

(* The one place the hit rate is computed; the CLI's [store stats]
   output and the profile report both read it from here. *)
let hit_rate ~hits ~misses =
  let lookups = Int64.add hits misses in
  if Int64.equal lookups 0L then None
  else Some (Int64.to_float hits /. Int64.to_float lookups)

let stats st =
  let bindings = Det_tbl.bindings ~cmp:String.compare st.tbl in
  let bytes = List.fold_left (fun acc (_, e) -> acc + e.size) 0 bindings in
  {
    entries = List.length bindings;
    bytes;
    hits = st.hits;
    misses = st.misses;
    hit_rate = hit_rate ~hits:st.hits ~misses:st.misses;
    tmp_swept = st.tmp_swept;
    journal_replays = st.journal_replays;
  }

type gc_report = {
  evicted : int;
  freed_bytes : int;
  kept : int;
  kept_bytes : int;
}

let gc st ~max_bytes =
  T.with_span st.telemetry "store.gc"
  @@ fun () ->
  let bindings = Det_tbl.bindings ~cmp:String.compare st.tbl in
  let total = List.fold_left (fun acc (_, e) -> acc + e.size) 0 bindings in
  (* Least-recently-used first; access stamps are logical clock ticks,
     ties broken by key so the order is a pure function of history. *)
  let order =
    List.sort
      (fun (h1, e1) (h2, e2) ->
        match Int64.compare e1.last_access e2.last_access with
        | 0 -> String.compare h1 h2
        | c -> c)
      bindings
  in
  let rec evict_loop evicted freed remaining = function
    | [] -> (evicted, freed)
    | (hex, e) :: rest ->
      if remaining <= max_bytes then (evicted, freed)
      else begin
        journal_append st ("D " ^ hex);
        Failpoint.trigger "store.gc.pre_remove";
        ignore (remove_quiet (entry_path st hex));
        Failpoint.trigger "store.gc.post_remove";
        Hashtbl.remove st.tbl hex;
        evict_loop (evicted + 1) (freed + e.size) (remaining - e.size) rest
      end
  in
  let evicted, freed_bytes = evict_loop 0 0 total order in
  T.count st.telemetry "store.evictions" evicted;
  T.count st.telemetry "store.evicted_bytes" freed_bytes;
  if evicted > 0 then
    Flight.note "store.gc"
      [ ("evicted", string_of_int evicted); ("freed_bytes", string_of_int freed_bytes) ];
  fold st;
  {
    evicted;
    freed_bytes;
    kept = Hashtbl.length st.tbl;
    kept_bytes = total - freed_bytes;
  }

type fsck_error = {
  fsck_path : string;
  fsck_offset : int;
  fsck_reason : string;
}

type fsck_report = {
  checked : int;
  ok : int;
  fsck_errors : fsck_error list;
}

let verify st =
  let checked = ref 0 in
  let ok = ref 0 in
  let errors = ref [] in
  let seen = Hashtbl.create 64 in
  let err fsck_path fsck_offset fsck_reason =
    errors := { fsck_path; fsck_offset; fsck_reason } :: !errors
  in
  walk_entries st.dir (fun ~rel ~data ->
      incr checked;
      Hashtbl.replace seen (Filename.remove_extension (Filename.basename rel)) ();
      match data with
      | None -> err rel 0 "unreadable"
      | Some data -> (
        match Codec.verify_frame data with
        | Ok (_ : Codec.kind) ->
          incr ok;
          if
            not
              (Hashtbl.mem st.tbl
                 (Filename.remove_extension (Filename.basename rel)))
          then err rel 0 "not in manifest index"
        | Error (e : Codec.error) -> err rel e.Codec.offset e.Codec.reason));
  (* the manifest frame itself *)
  (match read_file (manifest_path st.dir) with
  | None -> err manifest_name 0 "missing"
  | Some data ->
    incr checked;
    (match Codec.decode_manifest data with
    | Ok (_ : Codec.manifest) -> incr ok
    | Error (e : Codec.error) -> err manifest_name e.Codec.offset e.Codec.reason));
  (* index rows whose frame is gone from disk *)
  List.iter
    (fun (hex, (_ : entry)) ->
      if not (Hashtbl.mem seen hex) then
        err (entry_rel hex) 0 "indexed but missing on disk")
    (Det_tbl.bindings ~cmp:String.compare st.tbl);
  let fsck_errors =
    List.sort
      (fun a b ->
        match String.compare a.fsck_path b.fsck_path with
        | 0 -> Int.compare a.fsck_offset b.fsck_offset
        | c -> c)
      !errors
  in
  { checked = !checked; ok = !ok; fsck_errors }
