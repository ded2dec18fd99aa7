module Trace_ = Psn_trace.Trace
module Contact = Psn_trace.Contact
module Node = Psn_trace.Node
module Engine = Psn_sim.Engine
module Message = Psn_sim.Message
module Metrics_ = Psn_sim.Metrics
module Enumerate = Psn_paths.Enumerate
module Path = Psn_paths.Path

type kind = Manifest | Trace | Outcome | Metrics | Enumeration | Blob

let version = 1
let magic = "PSNS"
let header_len = 11 (* magic 4 + version 2 + kind 1 + length 4 *)
let trailer_len = 4 (* crc32 *)

let kind_tag = function
  | Manifest -> 0
  | Trace -> 1
  | Outcome -> 2
  | Metrics -> 3
  | Enumeration -> 4
  | Blob -> 5

let kind_of_tag = function
  | 0 -> Some Manifest
  | 1 -> Some Trace
  | 2 -> Some Outcome
  | 3 -> Some Metrics
  | 4 -> Some Enumeration
  | 5 -> Some Blob
  | _ -> None

let equal_kind a b = Int.equal (kind_tag a) (kind_tag b)

let kind_name = function
  | Manifest -> "manifest"
  | Trace -> "trace"
  | Outcome -> "outcome"
  | Metrics -> "metrics"
  | Enumeration -> "enumeration"
  | Blob -> "blob"

type error = { offset : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "offset %d: %s" e.offset e.reason

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)              *)

(* Sliced tables, slice [k] at [k * 256]: entry [n] of slice [k] is the
   register after byte [n] followed by [k] zero bytes. Slice 0 is the
   classic byte-at-a-time table; all eight together advance the CRC by
   eight bytes per step (slicing-by-8). Same polynomial, same values. *)
let crc_byte n =
  let c = ref n in
  for _ = 0 to 7 do
    c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
  done;
  !c

(* Built once, at module load: the kernels below only read it. *)
let crc_table =
  (Array.init 2048 (fun i ->
       let c = ref (crc_byte (i land 0xFF)) in
       for _ = 1 to i lsr 8 do
         c := (!c lsr 8) lxor crc_byte (!c land 0xFF)
       done;
       !c))
  [@lint.allow "hot-path-alloc"]

(* Little-endian field reads at a byte position, for callers that have
   checked the bounds of the whole span. *)
let u32_at s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF
let f64_at s i = Int64.float_of_bits (String.get_int64_le s i)

let[@psn.hot] rec crc_bytes s i stop c =
  if i >= stop then c
  else crc_bytes s (i + 1) stop (crc_table.((c lxor Char.code s.[i]) land 0xFF) lxor (c lsr 8))

let[@psn.hot] rec crc_words s i stop c =
  if i + 8 > stop then crc_bytes s i stop c
  else begin
    let t = crc_table in
    let lo = c lxor u32_at s i in
    let hi = u32_at s (i + 4) in
    crc_words s (i + 8) stop
      (t.(1792 + (lo land 0xFF))
      lxor t.(1536 + ((lo lsr 8) land 0xFF))
      lxor t.(1280 + ((lo lsr 16) land 0xFF))
      lxor t.(1024 + (lo lsr 24))
      lxor t.(768 + (hi land 0xFF))
      lxor t.(512 + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24))
  end

let[@psn.hot] crc32 s ~pos ~len = crc_words s pos (pos + len) 0xFFFFFFFF lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Primitive writers (little-endian, fixed width)                      *)

let w_u8 = Buffer.add_uint8
let w_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w_i64 = Buffer.add_int64_le
let w_f64 b v = w_i64 b (Int64.bits_of_float v)
let w_bool b v = w_u8 b (if v then 1 else 0)
let w_opt_f64 b = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    w_f64 b v

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

(* ------------------------------------------------------------------ *)
(* Primitive readers: bounds-checked, never past the payload          *)

(* Payload decoding reports failures through this local exception; the
   frame driver below converts it to an [error] — no exception ever
   escapes a [decode_*]. *)
exception Bad of int * string

type reader = { data : string; mutable pos : int }

let truncated n = Printf.sprintf "truncated payload (need %d more bytes)" n

let need r n = if n < 0 || r.pos + n > String.length r.data then raise (Bad (r.pos, truncated n))

(* One bounds check for a fixed-size part of [len] bytes made of fields
   [widths] bytes wide. If the part does not fit, the error names the
   first field that does not, at the offset and with the reason that
   reading the fields one at a time would give. *)
let need_part r len widths =
  if r.pos + len > String.length r.data then begin
    let rec first_short pos = function
      | w :: rest when pos + w <= String.length r.data -> first_short (pos + w) rest
      | w :: _ -> raise (Bad (pos, truncated w))
      | [] -> need r len
    in
    first_short r.pos widths
  end

let r_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v = u32_at r.data r.pos in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad (r.pos - 1, Printf.sprintf "bad boolean byte %d" v))

let r_str r =
  let len = r_u32 r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* ------------------------------------------------------------------ *)
(* Frame layer                                                        *)

let frame ~kind payload =
  let b = Buffer.create (header_len + String.length payload + trailer_len) in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b version;
  w_u8 b (kind_tag kind);
  w_u32 b (String.length payload);
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  let crc = crc32 body ~pos:4 ~len:(String.length body - 4) in
  w_u32 b crc;
  Buffer.contents b

(* Header, length and CRC checks; returns the declared kind and the
   payload. Every rejection names the offset of the failing field. *)
let open_frame s =
  let total = String.length s in
  if total < header_len + trailer_len then
    Error
      {
        offset = 0;
        reason =
          Printf.sprintf "truncated frame: %d bytes, need at least %d" total
            (header_len + trailer_len);
      }
  else if not (String.equal (String.sub s 0 4) magic) then
    Error { offset = 0; reason = "bad magic (not a psn-store frame)" }
  else begin
    let ver = Char.code s.[4] lor (Char.code s.[5] lsl 8) in
    if not (Int.equal ver version) then
      Error
        {
          offset = 4;
          reason = Printf.sprintf "unsupported format version %d (this build writes %d)" ver version;
        }
    else begin
      let paylen = Int32.to_int (String.get_int32_le s 7) land 0xFFFFFFFF in
      if not (Int.equal (header_len + paylen + trailer_len) total) then
        Error
          {
            offset = 7;
            reason =
              Printf.sprintf "declared payload length %d disagrees with frame size %d" paylen
                total;
          }
      else begin
        let stored =
          Int32.to_int (String.get_int32_le s (header_len + paylen)) land 0xFFFFFFFF
        in
        let computed = crc32 s ~pos:4 ~len:(header_len + paylen - 4) in
        if not (Int.equal stored computed) then
          Error
            {
              offset = header_len;
              reason = Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" stored computed;
            }
        else
          match kind_of_tag (Char.code s.[6]) with
          | None ->
            Error { offset = 6; reason = Printf.sprintf "unknown frame kind %d" (Char.code s.[6]) }
          | Some kind -> Ok (kind, String.sub s header_len paylen)
      end
    end
  end

(* Runs a payload reader to completion, converting its failures (and
   the constructors' [Invalid_argument] on semantically impossible
   values, reachable only through a CRC collision) into errors at
   frame-absolute offsets. *)
let run_reader payload read =
  let r = { data = payload; pos = 0 } in
  match read r with
  | v ->
    if Int.equal r.pos (String.length payload) then Ok v
    else Error { offset = header_len + r.pos; reason = "trailing bytes after payload" }
  | exception Bad (off, reason) -> Error { offset = header_len + off; reason }
  | exception Invalid_argument msg ->
    Error { offset = header_len; reason = "payload violates invariants: " ^ msg }

let decode_as expect read s =
  match open_frame s with
  | Error _ as e -> e
  | Ok (kind, payload) ->
    if not (equal_kind kind expect) then
      Error
        {
          offset = 6;
          reason =
            Printf.sprintf "expected a %s frame, found %s" (kind_name expect) (kind_name kind);
        }
    else run_reader payload read

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)

let trace_payload b t =
  let n = Trace_.n_nodes t in
  w_u32 b n;
  w_f64 b (Trace_.horizon t);
  Array.iter
    (fun k -> w_u8 b (match k with Node.Mobile -> 0 | Node.Stationary -> 1))
    (Trace_.kinds t);
  w_u32 b (Trace_.n_contacts t);
  Trace_.iter_contacts t (fun (c : Contact.t) ->
      w_u32 b c.Contact.a;
      w_u32 b c.Contact.b;
      w_f64 b c.Contact.t_start;
      w_f64 b c.Contact.t_end)

let read_trace r =
  let n_nodes = r_u32 r in
  let horizon = r_f64 r in
  need r n_nodes;
  let kinds =
    Array.init n_nodes (fun _ ->
        match r_u8 r with
        | 0 -> Node.Mobile
        | 1 -> Node.Stationary
        | v -> raise (Bad (r.pos - 1, Printf.sprintf "bad node kind %d" v)))
  in
  let n_contacts = r_u32 r in
  need r (n_contacts * 24);
  let contacts =
    List.init n_contacts (fun _ ->
        let a = r_u32 r in
        let b = r_u32 r in
        let t_start = r_f64 r in
        let t_end = r_f64 r in
        Contact.make ~a ~b ~t_start ~t_end)
  in
  Trace_.create ~n_nodes ~horizon ~kinds contacts

let encode_trace t =
  let b = Buffer.create (64 + (Trace_.n_contacts t * 24)) in
  trace_payload b t;
  frame ~kind:Trace (Buffer.contents b)

let decode_trace s = decode_as Trace read_trace s

(* ------------------------------------------------------------------ *)
(* Engine outcome                                                     *)

let outcome_payload b (o : Engine.outcome) =
  w_str b o.Engine.algorithm;
  w_u32 b (Array.length o.Engine.records);
  Array.iter
    (fun (rec_ : Engine.record) ->
      let m = rec_.Engine.message in
      w_u32 b m.Message.id;
      w_u32 b m.Message.src;
      w_u32 b m.Message.dst;
      w_f64 b m.Message.t_create;
      w_opt_f64 b rec_.Engine.delivered;
      w_u32 b rec_.Engine.copies;
      w_u32 b rec_.Engine.attempts)
    o.Engine.records;
  w_u32 b o.Engine.copies;
  w_u32 b o.Engine.attempts

(* A record is read as three fixed-size parts, one bounds check each:
   the message fields with the delivery option tag (21 bytes), the
   delivery time when the tag is 1 (8), and the two counters (8). *)
let read_record r =
  need_part r 21 [ 4; 4; 4; 8; 1 ];
  let d = r.data and p = r.pos in
  let id = u32_at d p and src = u32_at d (p + 4) and dst = u32_at d (p + 8) in
  let t_create = f64_at d (p + 12) in
  r.pos <- p + 21;
  let delivered =
    match Char.code d.[p + 20] with
    | 0 -> None
    | 1 -> Some (r_f64 r)
    | v -> raise (Bad (p + 20, Printf.sprintf "bad option tag %d" v))
  in
  need_part r 8 [ 4; 4 ];
  let copies = u32_at d r.pos and attempts = u32_at d (r.pos + 4) in
  r.pos <- r.pos + 8;
  { Engine.message = Message.make ~id ~src ~dst ~t_create; delivered; copies; attempts }

let read_outcome r =
  let algorithm = r_str r in
  let n = r_u32 r in
  need r (n * 29) (* 20 message bytes + >=1 option byte + 8 counter bytes *);
  let records = Array.init n (fun _ -> read_record r) in
  let copies = r_u32 r in
  let attempts = r_u32 r in
  { Engine.algorithm; records; copies; attempts }

let encode_outcome o =
  let b = Buffer.create (64 + (Array.length o.Engine.records * 33)) in
  outcome_payload b o;
  frame ~kind:Outcome (Buffer.contents b)

let decode_outcome s = decode_as Outcome read_outcome s

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let metrics_payload b (m : Metrics_.t) =
  w_str b m.Metrics_.algorithm;
  w_u32 b m.Metrics_.messages;
  w_u32 b m.Metrics_.delivered;
  w_f64 b m.Metrics_.success_rate;
  w_f64 b m.Metrics_.mean_delay;
  w_f64 b m.Metrics_.median_delay;
  w_u32 b m.Metrics_.copies;
  w_u32 b m.Metrics_.attempts

let read_metrics r =
  let algorithm = r_str r in
  let messages = r_u32 r in
  let delivered = r_u32 r in
  let success_rate = r_f64 r in
  let mean_delay = r_f64 r in
  let median_delay = r_f64 r in
  let copies = r_u32 r in
  let attempts = r_u32 r in
  {
    Metrics_.algorithm;
    messages;
    delivered;
    success_rate;
    mean_delay;
    median_delay;
    copies;
    attempts;
  }

let encode_metrics m =
  let b = Buffer.create 96 in
  metrics_payload b m;
  frame ~kind:Metrics (Buffer.contents b)

let decode_metrics s = decode_as Metrics read_metrics s

(* ------------------------------------------------------------------ *)
(* Enumeration result                                                 *)

let enumeration_payload b (res : Enumerate.result) =
  w_u32 b res.Enumerate.src;
  w_u32 b res.Enumerate.dst;
  w_f64 b res.Enumerate.t_create;
  w_bool b res.Enumerate.stopped_early;
  w_u32 b res.Enumerate.steps_processed;
  w_u32 b (Array.length res.Enumerate.arrivals);
  Array.iter
    (fun (a : Enumerate.arrival) ->
      let hops = Path.hops a.Enumerate.path in
      w_u32 b (List.length hops);
      List.iter
        (fun (h : Path.hop) ->
          w_u32 b h.Path.node;
          w_u32 b h.Path.step)
        hops;
      w_u32 b a.Enumerate.step;
      w_f64 b a.Enumerate.time;
      w_f64 b a.Enumerate.duration)
    res.Enumerate.arrivals

let read_enumeration r =
  let src = r_u32 r in
  let dst = r_u32 r in
  let t_create = r_f64 r in
  let stopped_early = r_bool r in
  let steps_processed = r_u32 r in
  let n = r_u32 r in
  need r (n * 24) (* hop count (4) + step (4) + time and duration (16), per arrival *);
  let arrivals =
    Array.init n (fun _ ->
        let n_hops = r_u32 r in
        need r (n_hops * 8);
        let hops =
          List.init n_hops (fun _ ->
              let node = r_u32 r in
              let step = r_u32 r in
              { Path.node; step })
        in
        let step = r_u32 r in
        let time = r_f64 r in
        let duration = r_f64 r in
        { Enumerate.path = Path.of_hops hops; step; time; duration })
  in
  { Enumerate.arrivals; stopped_early; steps_processed; src; dst; t_create }

let encode_enumeration res =
  let b = Buffer.create (64 + (Array.length res.Enumerate.arrivals * 64)) in
  enumeration_payload b res;
  frame ~kind:Enumeration (Buffer.contents b)

let decode_enumeration s = decode_as Enumeration read_enumeration s

(* ------------------------------------------------------------------ *)
(* Blob                                                               *)

(* The payload is the caller's bytes verbatim — no internal structure
   beyond the frame's own length and CRC checks. Opaque by design: the
   serve layer stores its (versioned, self-describing) snapshot text
   here without the codec needing to know its schema. *)

let read_blob r =
  let n = String.length r.data - r.pos in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let encode_blob s = frame ~kind:Blob s
let decode_blob s = decode_as Blob read_blob s

(* ------------------------------------------------------------------ *)
(* Manifest                                                           *)

type manifest_entry = { e_key : string; e_kind : kind; e_size : int; e_last_access : int64 }

type manifest = {
  m_clock : int64;
  m_hits : int64;
  m_misses : int64;
  m_entries : manifest_entry list;
}

let manifest_payload b m =
  w_i64 b m.m_clock;
  w_i64 b m.m_hits;
  w_i64 b m.m_misses;
  w_u32 b (List.length m.m_entries);
  List.iter
    (fun e ->
      w_str b e.e_key;
      w_u8 b (kind_tag e.e_kind);
      w_u32 b e.e_size;
      w_i64 b e.e_last_access)
    m.m_entries

let read_manifest r =
  let m_clock = r_i64 r in
  let m_hits = r_i64 r in
  let m_misses = r_i64 r in
  let n = r_u32 r in
  need r (n * 17) (* >=4 key-length bytes + kind + size + access stamp *);
  let m_entries =
    List.init n (fun _ ->
        let e_key = r_str r in
        let tag = r_u8 r in
        let e_kind =
          match kind_of_tag tag with
          | Some k -> k
          | None -> raise (Bad (r.pos - 1, Printf.sprintf "unknown entry kind %d" tag))
        in
        let e_size = r_u32 r in
        let e_last_access = r_i64 r in
        { e_key; e_kind; e_size; e_last_access })
  in
  { m_clock; m_hits; m_misses; m_entries }

let encode_manifest m =
  let b = Buffer.create (32 + (List.length m.m_entries * 40)) in
  manifest_payload b m;
  frame ~kind:Manifest (Buffer.contents b)

let decode_manifest s = decode_as Manifest read_manifest s

(* ------------------------------------------------------------------ *)
(* Verification                                                       *)

let verify_frame s =
  match open_frame s with
  | Error _ as e -> e
  | Ok (kind, payload) ->
    let read =
      match kind with
      | Manifest -> fun r -> ignore (read_manifest r)
      | Trace -> fun r -> ignore (read_trace r)
      | Outcome -> fun r -> ignore (read_outcome r)
      | Metrics -> fun r -> ignore (read_metrics r)
      | Enumeration -> fun r -> ignore (read_enumeration r)
      | Blob -> fun r -> ignore (read_blob r)
    in
    Result.map (fun () -> kind) (run_reader payload read)
