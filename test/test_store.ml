(* Tests for the content-addressed result store: FNV vectors, codec
   round-trips and corruption behaviour (qcheck), on-disk store
   semantics (hit/miss accounting, self-repair, gc order, verify), and
   the memoized runner's bit-identity contract. *)

module Fnv = Core.Fnv
module Codec = Core.Store_codec
module Key = Core.Store_key
module Store = Core.Store

(* --- fnv-1a/64 --- *)

let test_fnv_vectors () =
  (* Standard Fowler-Noll-Vo test vectors. *)
  let check name s expect =
    Alcotest.(check int64) name expect (Fnv.of_string s)
  in
  check "empty" "" 0xcbf29ce484222325L;
  check "a" "a" 0xaf63dc4c8601ec8cL;
  check "foobar" "foobar" 0x85944171f73967e8L

let test_fnv_hex () =
  Alcotest.(check string) "hex of offset basis" "cbf29ce484222325" (Fnv.to_hex (Fnv.of_string ""));
  Alcotest.(check int) "hex width" 16 (String.length (Fnv.to_hex (Fnv.of_string "x")))

let test_fnv_chaining () =
  (* Hashing in two chunks through ~init equals hashing the whole. *)
  let whole = Fnv.of_string "hello world" in
  let chained = Fnv.of_string ~init:(Fnv.of_string "hello ") "world" in
  Alcotest.(check int64) "chained" whole chained

(* --- sample values --- *)

let sample_trace () =
  Core.Trace.create ~n_nodes:4 ~horizon:1000.
    ~kinds:[| Core.Node.Mobile; Core.Node.Stationary; Core.Node.Mobile; Core.Node.Mobile |]
    [
      Core.Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:50.;
      Core.Contact.make ~a:1 ~b:2 ~t_start:60. ~t_end:120.;
      Core.Contact.make ~a:2 ~b:3 ~t_start:400. ~t_end:900.;
    ]

let sample_outcome ?(algorithm = "direct") ?(delivered = Some 42.5) () =
  let message = Core.Message.make ~id:0 ~src:1 ~dst:2 ~t_create:5. in
  {
    Core.Engine.algorithm;
    records = [| { Core.Engine.message; delivered; copies = 3; attempts = 4 } |];
    copies = 3;
    attempts = 4;
  }

let outcome_equal (a : Core.Engine.outcome) (b : Core.Engine.outcome) =
  String.equal
    (Codec.encode_outcome a)
    (Codec.encode_outcome b)

(* --- codec round-trips (spot checks) --- *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: offset %d: %s" what e.Codec.offset e.Codec.reason

let test_codec_trace_roundtrip () =
  let trace = sample_trace () in
  let enc = Codec.encode_trace trace in
  let dec = ok_or_fail "decode_trace" (Codec.decode_trace enc) in
  Alcotest.(check string) "canonical re-encode" enc (Codec.encode_trace dec);
  Alcotest.(check int) "n_nodes" (Core.Trace.n_nodes trace) (Core.Trace.n_nodes dec);
  Alcotest.(check (float 0.)) "horizon" (Core.Trace.horizon trace) (Core.Trace.horizon dec)

let test_codec_outcome_roundtrip () =
  let outcome = sample_outcome () in
  let enc = Codec.encode_outcome outcome in
  let dec = ok_or_fail "decode_outcome" (Codec.decode_outcome enc) in
  Alcotest.(check string) "algorithm" outcome.Core.Engine.algorithm dec.Core.Engine.algorithm;
  Alcotest.(check bool) "records" true (outcome_equal outcome dec)

let test_codec_metrics_roundtrip () =
  let m = Core.Metrics.of_outcome (sample_outcome ()) in
  let dec = ok_or_fail "decode_metrics" (Codec.decode_metrics (Codec.encode_metrics m)) in
  Alcotest.(check bool) "Metrics.equal" true (Core.Metrics.equal m dec)

let test_codec_metrics_nan_roundtrip () =
  (* An undelivered workload has nan delays; bit-identity must hold. *)
  let m = Core.Metrics.of_outcome (sample_outcome ~delivered:None ()) in
  let dec = ok_or_fail "decode_metrics" (Codec.decode_metrics (Codec.encode_metrics m)) in
  Alcotest.(check bool) "nan delay survives" true (Float.is_nan dec.Core.Metrics.mean_delay);
  Alcotest.(check bool) "Metrics.equal" true (Core.Metrics.equal m dec)

let test_codec_kind_mismatch () =
  let enc = Codec.encode_trace (sample_trace ()) in
  match Codec.decode_outcome enc with
  | Ok _ -> Alcotest.fail "trace frame decoded as outcome"
  | Error e -> Alcotest.(check int) "kind error offset" 6 e.Codec.offset

let test_codec_truncated () =
  let enc = Codec.encode_trace (sample_trace ()) in
  List.iter
    (fun len ->
      match Codec.decode_trace (String.sub enc 0 len) with
      | Ok _ -> Alcotest.failf "truncated to %d bytes decoded" len
      | Error _ -> ())
    [ 0; 3; 10; String.length enc - 1 ]

(* --- codec pins: the bytes existing stores hold, and the errors that
   [store verify] reports on them --- *)

(* Bit-at-a-time CRC-32 (IEEE 802.3, reflected), independent of the
   codec's tables. *)
let ref_crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let frame_crc frame =
  Int32.to_int (String.get_int32_le frame (String.length frame - 4)) land 0xFFFFFFFF

let frame_payload frame = String.sub frame 11 (String.length frame - 15)

(* A frame with [payload] in place of its own, length and CRC made
   consistent again, so only the payload decode can reject it. *)
let reseal frame payload =
  let b = Buffer.create (String.length payload + 15) in
  Buffer.add_string b (String.sub frame 0 7);
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  Buffer.add_int32_le b (Int32.of_int (ref_crc32 body ~pos:4 ~len:(String.length body - 4)));
  Buffer.contents b

(* 41 records, every third undelivered: the payload starts with the
   10-byte algorithm string and the 4-byte record count, and record [i]
   is 29 bytes, plus 8 when delivered. *)
let pin_outcome =
  let record i =
    let message =
      Core.Message.make ~id:i ~src:(i mod 7) ~dst:(7 + (i mod 5))
        ~t_create:((float_of_int i *. 13.) +. 0.25)
    in
    let delivered = if i mod 3 = 0 then None else Some ((float_of_int i *. 17.) +. 1000.5) in
    { Core.Engine.message; delivered; copies = i mod 4; attempts = (i mod 4) + (i mod 2) }
  in
  let records = Array.init 41 record in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 records in
  {
    Core.Engine.algorithm = "pinned";
    records;
    copies = sum (fun r -> r.Core.Engine.copies);
    attempts = sum (fun r -> r.Core.Engine.attempts);
  }

let pin_manifest =
  let entry e_key e_kind e_size e_last_access = { Codec.e_key; e_kind; e_size; e_last_access } in
  {
    Codec.m_clock = 42L;
    m_hits = 7L;
    m_misses = 3L;
    m_entries =
      [
        entry "0123456789abcdef" Codec.Outcome 1234 40L;
        entry "fedcba9876543210" Codec.Enumeration 77 41L;
        entry "00000000deadbeef" Codec.Blob 15 2L;
      ];
  }

let pin_enumeration =
  let arrival hops step =
    let time = float_of_int step *. 2.5 in
    {
      Core.Enumerate.path =
        Core.Path.of_hops (List.map (fun (node, step) -> { Core.Path.node; step }) hops);
      step;
      time;
      duration = time -. 3.;
    }
  in
  {
    Core.Enumerate.arrivals =
      [| arrival [ (0, 2); (5, 4) ] 4; arrival [ (0, 2); (3, 3); (5, 6) ] 6; arrival [ (0, 7) ] 7 |];
    stopped_early = true;
    steps_processed = 9;
    src = 0;
    dst = 5;
    t_create = 3.;
  }

let test_codec_version_pinned () = Alcotest.(check int) "format version" 1 Codec.version

let test_codec_frames_pinned () =
  let check name frame len digest =
    Alcotest.(check int) (name ^ " frame length") len (String.length frame);
    Alcotest.(check string) (name ^ " frame digest") digest (Fnv.to_hex (Fnv.of_string frame))
  in
  check "outcome" (Codec.encode_outcome pin_outcome) 1442 "c2daa621775085dc";
  check "manifest" (Codec.encode_manifest pin_manifest) 142 "fdf94e78872c5d9b";
  check "enumeration" (Codec.encode_enumeration pin_enumeration) 160 "eefe115b32c6d642"

let test_codec_crc_reference () =
  Alcotest.(check int) "reference CRC check value" 0xCBF43926 (ref_crc32 "123456789" ~pos:0 ~len:9);
  (* Every payload length from 0 to 40 bytes, so every tail a
     multi-byte CRC step can leave is covered. *)
  for n = 0 to 40 do
    let frame = Codec.encode_blob (String.init n (fun i -> Char.chr (((i * 37) + n) land 0xFF))) in
    Alcotest.(check int)
      (Printf.sprintf "blob of %d bytes" n)
      (ref_crc32 frame ~pos:4 ~len:(String.length frame - 8))
      (frame_crc frame)
  done

(* The exact offset and reason of an outcome payload rejection. *)
let check_outcome_error name frame offset reason =
  match Codec.decode_outcome frame with
  | Ok _ -> Alcotest.failf "%s: decoded" name
  | Error e ->
    Alcotest.(check string) (name ^ " reason") reason e.Codec.reason;
    Alcotest.(check int) (name ^ " offset") offset e.Codec.offset

let test_codec_errors_pinned () =
  let frame = Codec.encode_outcome pin_outcome in
  let payload = frame_payload frame in
  let with_byte pos v =
    let b = Bytes.of_string payload in
    Bytes.set b pos (Char.chr v);
    reseal frame (Bytes.to_string b)
  in
  (* Record 1 starts at payload byte 43; its option tag follows the
     20 message bytes. *)
  check_outcome_error "bad option tag" (with_byte 63 2) 74 "bad option tag 2";
  (* Record 1's destination set to its source (1). *)
  check_outcome_error "src = dst" (with_byte 51 1) 11
    "payload violates invariants: Message.make: src = dst";
  (* Records 0..34 fill payload bytes 14..1212; record 35 is delivered. *)
  let cut n = reseal frame (String.sub payload 0 n) in
  check_outcome_error "truncated in the message fields" (cut 1223) 1232
    "truncated payload (need 4 more bytes)";
  check_outcome_error "truncated in the delivery time" (cut 1237) 1245
    "truncated payload (need 8 more bytes)";
  check_outcome_error "truncated in the counters" (cut 1246) 1257
    "truncated payload (need 4 more bytes)";
  check_outcome_error "truncated in the totals" (cut (String.length payload - 3)) 1434
    "truncated payload (need 4 more bytes)";
  check_outcome_error "trailing bytes" (reseal frame (payload ^ "\000")) 1438
    "trailing bytes after payload"

(* --- codec qcheck properties --- *)

let gen_trace =
  let open QCheck2.Gen in
  let* n_nodes = int_range 2 10 in
  let* kinds = array_size (pure n_nodes) (oneofl [ Core.Node.Mobile; Core.Node.Stationary ]) in
  let horizon = 1000. in
  let gen_contact =
    let* a = int_range 0 (n_nodes - 1) in
    let* b_off = int_range 1 (n_nodes - 1) in
    let b = (a + b_off) mod n_nodes in
    let* t_start = float_range 0. 900. in
    let* dur = float_range 0.5 99. in
    pure (Core.Contact.make ~a ~b ~t_start ~t_end:(t_start +. dur))
  in
  let* contacts = list_size (int_range 0 30) gen_contact in
  pure (Core.Trace.create ~n_nodes ~horizon ~kinds contacts)

let gen_record =
  let open QCheck2.Gen in
  let* id = int_range 0 10_000 in
  let* src = int_range 0 50 in
  let* dst_off = int_range 1 50 in
  let* t_create = float_range 0. 1e6 in
  let* delivered = option (float_range 0. 1e6) in
  let* copies = int_range 0 1000 in
  let* attempts = int_range 0 1000 in
  pure
    {
      Core.Engine.message = Core.Message.make ~id ~src ~dst:(src + dst_off) ~t_create;
      delivered;
      copies;
      attempts;
    }

let gen_outcome =
  let open QCheck2.Gen in
  let* algorithm = string_size (int_range 0 30) in
  let* records = array_size (int_range 0 20) gen_record in
  let* copies = int_range 0 100_000 in
  let* attempts = int_range 0 100_000 in
  pure { Core.Engine.algorithm; records; copies; attempts }

(* Bit-general floats (any IEEE-754 payload, nan included): metrics
   must round-trip whatever the engine can produce. *)
let gen_bits_float = QCheck2.Gen.(map Int64.float_of_bits int64)

let gen_metrics =
  let open QCheck2.Gen in
  let* algorithm = string_size (int_range 0 30) in
  let* messages = int_range 0 100_000 in
  let* delivered = int_range 0 100_000 in
  let* success_rate = gen_bits_float in
  let* mean_delay = gen_bits_float in
  let* median_delay = gen_bits_float in
  let* copies = int_range 0 100_000 in
  let* attempts = int_range 0 100_000 in
  pure
    {
      Core.Metrics.algorithm;
      messages;
      delivered;
      success_rate;
      mean_delay;
      median_delay;
      copies;
      attempts;
    }

let gen_enumeration =
  let open QCheck2.Gen in
  let gen_path =
    let* n_hops = int_range 1 6 in
    let* nodes = list_size (pure n_hops) (int_range 0 40) in
    let* steps = list_size (pure n_hops) (int_range 1 3) in
    (* strictly increasing step sequence *)
    let hops =
      List.rev
        (snd
           (List.fold_left2
              (fun (step, acc) node inc ->
                let step = step + inc in
                (step, { Core.Path.node; step } :: acc))
              (0, []) nodes steps))
    in
    pure (Core.Path.of_hops hops)
  in
  let gen_arrival =
    let* path = gen_path in
    let* step = int_range 0 500 in
    let* time = float_range 0. 1e5 in
    let* duration = float_range 0. 1e5 in
    pure { Core.Enumerate.path; step; time; duration }
  in
  let* arrivals = array_size (int_range 0 12) gen_arrival in
  let* stopped_early = bool in
  let* steps_processed = int_range 0 1000 in
  let* src = int_range 0 40 in
  let* dst = int_range 0 40 in
  let* t_create = float_range 0. 1e5 in
  pure { Core.Enumerate.arrivals; stopped_early; steps_processed; src; dst; t_create }

let roundtrips encode decode v =
  let enc = encode v in
  match decode enc with
  | Error (e : Codec.error) ->
    QCheck2.Test.fail_reportf "decode failed at offset %d: %s" e.Codec.offset e.Codec.reason
  | Ok w -> String.equal enc (encode w)

(* Flipping any single byte must turn decoding into a typed error —
   never an exception, never a silent success. *)
let corrupt_resists decode enc (pos, mask) =
  let pos = pos mod String.length enc in
  let b = Bytes.of_string enc in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  match decode (Bytes.to_string b) with
  | Ok _ -> false
  | Error (_ : Codec.error) -> true
  | exception e -> QCheck2.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let gen_corruption =
  QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 255))

let qcheck_codec =
  let open QCheck2 in
  [
    Test.make ~name:"trace: decode(encode) re-encodes identically" ~count:100 gen_trace
      (roundtrips Codec.encode_trace Codec.decode_trace);
    Test.make ~name:"outcome: decode(encode) re-encodes identically" ~count:100 gen_outcome
      (roundtrips Codec.encode_outcome Codec.decode_outcome);
    Test.make ~name:"metrics: decode(encode) re-encodes identically" ~count:200 gen_metrics
      (roundtrips Codec.encode_metrics Codec.decode_metrics);
    Test.make ~name:"enumeration: decode(encode) re-encodes identically" ~count:100
      gen_enumeration
      (roundtrips Codec.encode_enumeration Codec.decode_enumeration);
    Test.make ~name:"trace: any flipped byte is a typed decode error" ~count:200
      Gen.(pair gen_trace gen_corruption)
      (fun (trace, c) -> corrupt_resists Codec.decode_trace (Codec.encode_trace trace) c);
    Test.make ~name:"outcome: any flipped byte is a typed decode error" ~count:200
      Gen.(pair gen_outcome gen_corruption)
      (fun (o, c) -> corrupt_resists Codec.decode_outcome (Codec.encode_outcome o) c);
    Test.make ~name:"metrics: any flipped byte is a typed decode error" ~count:200
      Gen.(pair gen_metrics gen_corruption)
      (fun (m, c) -> corrupt_resists Codec.decode_metrics (Codec.encode_metrics m) c);
    Test.make ~name:"enumeration: any flipped byte is a typed decode error" ~count:200
      Gen.(pair gen_enumeration gen_corruption)
      (fun (r, c) ->
        corrupt_resists Codec.decode_enumeration (Codec.encode_enumeration r) c);
    Test.make ~name:"garbage never decodes and never raises" ~count:200
      Gen.(string_size (int_range 0 80))
      (fun s ->
        match Codec.decode_outcome s with
        | Ok _ -> String.length s >= 15 (* only a real frame may decode *)
        | Error (_ : Codec.error) -> true);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- key composition --- *)

let workload = { Core.Workload.rate = 0.25; t_start = 0.; t_end = 600.; n_nodes = 4 }

let test_key_sensitivity () =
  let th = Key.trace_hash (sample_trace ()) in
  let base = Key.outcome ~trace_hash:th ~workload ~algo:"direct" ~seed:1000L () in
  let differs what k =
    Alcotest.(check bool) what false (String.equal (Key.to_hex base) (Key.to_hex k))
  in
  differs "seed changes key" (Key.outcome ~trace_hash:th ~workload ~algo:"direct" ~seed:1001L ());
  differs "algo changes key" (Key.outcome ~trace_hash:th ~workload ~algo:"fresh" ~seed:1000L ());
  differs "workload changes key"
    (Key.outcome ~trace_hash:th
       ~workload:{ workload with Core.Workload.rate = 0.5 }
       ~algo:"direct" ~seed:1000L ());
  differs "faults change key"
    (Key.outcome ~trace_hash:th ~workload ~algo:"direct" ~seed:1000L
       ~faults:Core.Experiments.default_fault_spec ());
  differs "trace changes key"
    (Key.outcome
       ~trace_hash:(Key.trace_hash (Core.Trace.create ~n_nodes:2 ~horizon:10. []))
       ~workload ~algo:"direct" ~seed:1000L ());
  let again = Key.outcome ~trace_hash:th ~workload ~algo:"direct" ~seed:1000L () in
  Alcotest.(check string) "stable" (Key.to_hex base) (Key.to_hex again)

(* --- the on-disk store --- *)

(* A new, empty directory per call, so reruns never see an earlier
   run's entries. *)
let fresh_dir () = Filename.temp_dir ~temp_dir:Filename.current_dir_name "store_test_" ""

let some_key ?(algo = "direct") ?(seed = 1000L) () =
  Key.outcome ~trace_hash:(Key.trace_hash (sample_trace ())) ~workload ~algo ~seed ()

let test_store_put_find () =
  let st = Store.open_ ~dir:(fresh_dir ()) () in
  let key = some_key () in
  Alcotest.(check bool) "empty store misses" true (Option.is_none (Store.find_outcome st key));
  let outcome = sample_outcome () in
  Store.put_outcome st key outcome;
  (match Store.find_outcome st key with
  | None -> Alcotest.fail "stored entry not found"
  | Some got -> Alcotest.(check bool) "same outcome" true (outcome_equal outcome got));
  let s = Store.stats st in
  Alcotest.(check int) "one entry" 1 s.Store.entries;
  Alcotest.(check int64) "one hit" 1L s.Store.hits;
  Alcotest.(check int64) "one miss" 1L s.Store.misses

let test_store_reopen () =
  let dir = fresh_dir () in
  let key = some_key () in
  let outcome = sample_outcome () in
  let st = Store.open_ ~dir () in
  Store.put_outcome st key outcome;
  (* a second open reads the manifest back *)
  let st2 = Store.open_ ~dir () in
  (match Store.find_outcome st2 key with
  | None -> Alcotest.fail "entry lost across reopen"
  | Some got -> Alcotest.(check bool) "same outcome" true (outcome_equal outcome got));
  (* a lost manifest is rebuilt by scanning the shards *)
  Sys.remove (Filename.concat dir "manifest.psn");
  let st3 = Store.open_ ~dir () in
  Alcotest.(check bool) "rescan finds entry" true (Option.is_some (Store.find_outcome st3 key));
  Alcotest.(check int) "rescan entry count" 1 (Store.stats st3).Store.entries

let entry_files dir =
  let rec walk d =
    Sys.readdir d |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let p = Filename.concat d name in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix name ".psn" && not (String.equal name "manifest.psn")
           then [ p ]
           else [])
  in
  walk dir

let flip_byte path pos =
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x5a));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let test_store_corruption_repair () =
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  let key = some_key () in
  let outcome = sample_outcome () in
  Store.put_outcome st key outcome;
  let path = match entry_files dir with [ p ] -> p | l -> Alcotest.failf "%d entries" (List.length l) in
  flip_byte path 20;
  (* verify pinpoints the corrupt frame... *)
  let report = Store.verify st in
  (match report.Store.fsck_errors with
  | [ e ] ->
    Alcotest.(check int) "offset of CRC failure" 11 e.Store.fsck_offset;
    Alcotest.(check bool) "reason mentions CRC" true
      (String.length e.Store.fsck_reason >= 3 && String.equal (String.sub e.Store.fsck_reason 0 3) "CRC")
  | l -> Alcotest.failf "expected 1 fsck error, got %d" (List.length l));
  (* ...a lookup treats it as a miss... *)
  Alcotest.(check bool) "corrupt entry misses" true (Option.is_none (Store.find_outcome st key));
  (* ...and the recompute-store cycle repairs it. *)
  Store.put_outcome st key outcome;
  Alcotest.(check bool) "repaired" true (Option.is_some (Store.find_outcome st key));
  Alcotest.(check int) "verify clean after repair" 0
    (List.length (Store.verify st).Store.fsck_errors)

let test_store_gc_order () =
  let st = Store.open_ ~dir:(fresh_dir ()) () in
  let k1 = some_key ~seed:1L () in
  let k2 = some_key ~seed:2L () in
  let k3 = some_key ~seed:3L () in
  let outcome = sample_outcome () in
  Store.put_outcome st k1 outcome;
  Store.put_outcome st k2 outcome;
  Store.put_outcome st k3 outcome;
  (* touch k1 so k2 becomes the least recently used *)
  ignore (Store.find_outcome st k1);
  let size = (Store.stats st).Store.bytes / 3 in
  let r = Store.gc st ~max_bytes:(2 * size) in
  Alcotest.(check int) "evicted one" 1 r.Store.evicted;
  Alcotest.(check int) "kept two" 2 r.Store.kept;
  Alcotest.(check bool) "k1 kept (recently used)" true (Option.is_some (Store.find_outcome st k1));
  Alcotest.(check bool) "k2 evicted (oldest)" true (Option.is_none (Store.find_outcome st k2));
  Alcotest.(check bool) "k3 kept" true (Option.is_some (Store.find_outcome st k3));
  let r0 = Store.gc st ~max_bytes:0 in
  Alcotest.(check int) "gc 0 empties" 0 r0.Store.kept;
  Alcotest.(check int) "no entries left" 0 (Store.stats st).Store.entries

let test_store_enumeration_roundtrip () =
  let st = Store.open_ ~dir:(fresh_dir ()) () in
  let trace = sample_trace () in
  let snap = Core.Snapshot.of_trace trace in
  let config = { Core.Enumerate.default_config with Core.Enumerate.k = 50 } in
  let result = Core.Enumerate.run ~config snap ~src:0 ~dst:3 ~t_create:5. in
  let key =
    Key.enumeration ~trace_hash:(Key.trace_hash trace) ~config ~src:0 ~dst:3 ~t_create:5.
  in
  Store.put_enumeration st key result;
  match Store.find_enumeration st key with
  | None -> Alcotest.fail "stored enumeration not found"
  | Some got ->
    Alcotest.(check string) "canonical encoding identical"
      (Codec.encode_enumeration result)
      (Codec.encode_enumeration got)

(* --- memoized runner: the bit-identity acceptance criterion --- *)

let test_runner_warm_bit_identical () =
  let dir = fresh_dir () in
  (* A fixed 8-node trace with multi-hop relay chains, so epidemic and
     fresh actually branch and the cached outcomes are non-trivial. *)
  let trace =
    let c a b t_start t_end = Core.Contact.make ~a ~b ~t_start ~t_end in
    Core.Trace.create ~n_nodes:8 ~horizon:2000.
      [
        c 0 1 10. 120.; c 1 2 60. 250.; c 2 3 200. 400.; c 3 4 350. 600.;
        c 4 5 500. 800.; c 5 6 700. 1000.; c 6 7 900. 1300.; c 0 7 1100. 1500.;
        c 1 5 300. 450.; c 2 6 550. 750.; c 3 7 150. 280.; c 0 4 950. 1200.;
        c 1 6 1250. 1600.; c 2 7 1400. 1800.; c 0 3 1650. 1900.;
      ]
  in
  let workload = { Core.Workload.rate = 0.02; t_start = 0.; t_end = 1500.; n_nodes = 8 } in
  let spec = { Core.Runner.workload; seeds = Core.Runner.default_seeds 2 } in
  let entries =
    List.filter
      (fun (e : Core.Registry.entry) ->
        List.mem e.Core.Registry.name [ "direct"; "epidemic"; "fresh" ])
      Core.Registry.all
  in
  let factories = List.map (fun (e : Core.Registry.entry) -> e.Core.Registry.factory) entries in
  let st = Store.open_ ~dir () in
  let caches =
    let trace_hash = Key.trace_hash trace in
    List.map
      (fun (e : Core.Registry.entry) ->
        Core.Store_memo.runner_cache ~store:st ~trace_hash ~workload ~algo:e.Core.Registry.name
          ())
      entries
  in
  let pooled stores jobs =
    List.map Core.Metrics.pool
      (Core.Runner.outcomes_many ~jobs ?stores ~trace ~spec ~factories ())
  in
  let baseline = pooled None 2 in
  let cold = pooled (Some caches) 2 in
  let misses = (Store.stats st).Store.misses in
  Alcotest.(check int64) "cold misses = grid size" (Int64.of_int (3 * 2)) misses;
  (* warm, at a different jobs count, must be bit-identical *)
  let warm = pooled (Some caches) 1 in
  Alcotest.(check int64) "warm hits = grid size" (Int64.of_int (3 * 2))
    (Store.stats st).Store.hits;
  List.iteri
    (fun i ((b : Core.Metrics.t), (c, w)) ->
      Alcotest.(check bool) (Printf.sprintf "algo %d cold = uncached" i) true (Core.Metrics.equal b c);
      Alcotest.(check bool) (Printf.sprintf "algo %d warm = cold" i) true (Core.Metrics.equal c w))
    (List.combine baseline (List.combine cold warm))

(* --- crash recovery: tmp sweep and intent-journal replay ---

   The [error] failpoint action aborts an insert/gc at the same spot a
   [crash] would kill the process, but inside this test runner; the
   kill-based matrix over the same sites lives in crash_matrix.ml. *)

let with_failpoints spec f =
  match Core.Failpoint.parse spec with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    Core.Failpoint.install plan;
    Fun.protect ~finally:Core.Failpoint.uninstall f

let injected f =
  match f () with
  | () -> Alcotest.fail "failpoint did not fire"
  | exception Core.Failpoint.Injected _ -> ()

let test_store_tmp_sweep () =
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  Store.put_outcome st (some_key ()) (sample_outcome ());
  (* orphan temp files at the root and next to a real entry *)
  let orphan1 = Filename.concat dir "deadbeef.tmp" in
  let shard_dir = Filename.dirname (List.hd (entry_files dir)) in
  let orphan2 = Filename.concat shard_dir "cafe.tmp" in
  List.iter
    (fun p ->
      let oc = open_out_bin p in
      output_string oc "junk";
      close_out oc)
    [ orphan1; orphan2 ];
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "both orphans swept" 2 (Store.stats st2).Store.tmp_swept;
  Alcotest.(check bool) "root orphan gone" false (Sys.file_exists orphan1);
  Alcotest.(check bool) "shard orphan gone" false (Sys.file_exists orphan2);
  Alcotest.(check int) "entry survives" 1 (Store.stats st2).Store.entries;
  Alcotest.(check int) "clean reopen sweeps nothing" 0
    (Store.stats (Store.open_ ~dir ())).Store.tmp_swept

let test_store_insert_crash_windows () =
  (* died after journalling the intent, before the rename: reopen
     sweeps the half-written tmp and drops the dangling intent *)
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  let key = some_key () in
  with_failpoints "store.insert.pre_rename=error@1" (fun () ->
      injected (fun () -> Store.put_outcome st key (sample_outcome ())));
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "no entry committed" 0 (Store.stats st2).Store.entries;
  Alcotest.(check int) "tmp swept" 1 (Store.stats st2).Store.tmp_swept;
  Alcotest.(check int) "verify clean" 0 (List.length (Store.verify st2).Store.fsck_errors);
  (* died after the rename, before the manifest update: the replay
     adopts the committed frame — a committed entry is never lost *)
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  with_failpoints "store.insert.post_rename=error@1" (fun () ->
      injected (fun () -> Store.put_outcome st key (sample_outcome ())));
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "journal intent replayed" 1 (Store.stats st2).Store.journal_replays;
  Alcotest.(check bool) "committed entry adopted" true
    (Option.is_some (Store.find_outcome st2 key));
  Alcotest.(check int) "verify clean after adopt" 0
    (List.length (Store.verify st2).Store.fsck_errors)

let test_store_gc_crash_window () =
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  Store.put_outcome st (some_key ~seed:1L ()) (sample_outcome ());
  Store.put_outcome st (some_key ~seed:2L ()) (sample_outcome ());
  (* died between journalling an eviction and removing its file: the
     replay finishes the deletion, leaving no half-deleted state *)
  with_failpoints "store.gc.pre_remove=error@1" (fun () ->
      injected (fun () -> ignore (Store.gc st ~max_bytes:0)));
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "delete intent replayed" 1 (Store.stats st2).Store.journal_replays;
  Alcotest.(check int) "eviction completed at reopen" 1 (Store.stats st2).Store.entries;
  Alcotest.(check int) "verify clean" 0 (List.length (Store.verify st2).Store.fsck_errors)

(* --- the lookup log: hits and misses as journal lines ---

   A lookup appends one [H]/[M] line instead of rewriting the
   manifest; [open_] replays the lines and the store folds them once
   they outnumber its rows. A reopened store must be indistinguishable
   from one whose every lookup rewrote the manifest. *)

let journal_lines dir =
  let path = Filename.concat dir "journal.psn" in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))

let append_raw dir text =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644
    (Filename.concat dir "journal.psn") (fun oc -> Out_channel.output_string oc text)

(* A store holding [n] outcomes under seeds 1..n. Each put folds, so
   the lookups under test start from an empty journal. *)
let populated n =
  let dir = fresh_dir () in
  let st = Store.open_ ~dir () in
  let keys = List.init n (fun i -> some_key ~seed:(Int64.of_int (i + 1)) ()) in
  List.iter (fun k -> Store.put_outcome st k (sample_outcome ())) keys;
  (dir, keys)

let rec copy_tree src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_tree s d
      else
        Out_channel.with_open_bin d (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin s In_channel.input_all)))
    (Sys.readdir src)

let stats_line st =
  let s = Store.stats st in
  Printf.sprintf "entries=%d bytes=%d hits=%Ld misses=%Ld swept=%d replays=%d" s.Store.entries
    s.Store.bytes s.Store.hits s.Store.misses s.Store.tmp_swept s.Store.journal_replays

(* Shrink the store one entry at a time, listing the entries left on
   disk after each step: the whole LRU order, read without a lookup
   (which would restamp what it reads). *)
let eviction_order st =
  let n = (Store.stats st).Store.entries in
  let size = (Store.stats st).Store.bytes / n in
  List.init n (fun i ->
      ignore (Store.gc st ~max_bytes:((n - i - 1) * size));
      List.map (fun p -> Filename.remove_extension (Filename.basename p)) (entry_files (Store.dir st))
      |> String.concat ",")

let test_lookup_log_warm_replays_nothing () =
  let dir, keys = populated 4 in
  let st = Store.open_ ~dir () in
  List.iter (fun k -> ignore (Store.find_outcome st k)) keys;
  Alcotest.(check int) "hits journaled, not folded" 4 (List.length (journal_lines dir));
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "warm hits are no recovery" 0 (Store.stats st2).Store.journal_replays;
  Alcotest.(check int64) "warm hits replayed" 4L (Store.stats st2).Store.hits;
  Alcotest.(check int) "open folds the log" 0 (List.length (journal_lines dir))

let test_lookup_log_reopen_matches () =
  let dir, keys = populated 6 in
  let k1, k2, k3 = match keys with k1 :: k2 :: k3 :: _ -> (k1, k2, k3) | _ -> assert false in
  let st = Store.open_ ~dir () in
  (* corrupt k2's frame: its lookup misses and drops the row *)
  let k2_path =
    List.find
      (fun p -> String.equal (Filename.remove_extension (Filename.basename p)) (Key.to_hex k2))
      (entry_files dir)
  in
  flip_byte k2_path 20;
  ignore (Store.find_outcome st k3);
  ignore (Store.find_outcome st k1);
  Alcotest.(check bool) "corrupt frame misses" true (Option.is_none (Store.find_outcome st k2));
  Alcotest.(check bool) "absent key misses" true
    (Option.is_none (Store.find_outcome st (some_key ~seed:99L ())));
  ignore (Store.find_outcome st k3);
  Alcotest.(check int) "five lines, no fold" 5 (List.length (journal_lines dir));
  let copy = fresh_dir () in
  Sys.rmdir copy;
  copy_tree dir copy;
  let st2 = Store.open_ ~dir:copy () in
  Alcotest.(check string) "same stats" (stats_line st) (stats_line st2);
  Alcotest.(check (list string)) "same LRU order" (eviction_order st) (eviction_order st2)

let test_lookup_log_torn_line () =
  let dir, keys = populated 2 in
  let k1, k2 = match keys with [ k1; k2 ] -> (k1, k2) | _ -> assert false in
  let st = Store.open_ ~dir () in
  ignore (Store.find_outcome st k1);
  (* a hit on k2 torn mid-stamp: had it replayed, k2 would be the most
     recently used entry and gc would evict k1 *)
  append_raw dir ("H " ^ Key.to_hex k2 ^ " 00000000");
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int64) "only the whole line replayed" 1L (Store.stats st2).Store.hits;
  Alcotest.(check int) "no intent replayed" 0 (Store.stats st2).Store.journal_replays;
  ignore (Store.gc st2 ~max_bytes:((Store.stats st2).Store.bytes / 2));
  Alcotest.(check bool) "k1 kept" true (Option.is_some (Store.find_outcome st2 k1));
  Alcotest.(check bool) "k2 evicted" true (Option.is_none (Store.find_outcome st2 k2))

let test_lookup_log_bounded () =
  let e = 5 in
  let dir, keys = populated e in
  let st = Store.open_ ~dir () in
  let longest = ref 0 and folds = ref 0 and last = ref 0 in
  for i = 0 to (7 * e) - 1 do
    ignore (Store.find_outcome st (List.nth keys (i mod e)));
    let n = List.length (journal_lines dir) in
    if n < !last then incr folds;
    last := n;
    longest := Int.max !longest n
  done;
  Alcotest.(check bool) "journal stays within E + 1 lines" true (!longest <= e + 1);
  Alcotest.(check bool) "lookups fold" true (!folds >= 5);
  Alcotest.(check int64) "every hit counted" (Int64.of_int (7 * e)) (Store.stats (Store.open_ ~dir ())).Store.hits

let test_lookup_log_with_crashed_put () =
  let dir, keys = populated 3 in
  let k1, k2 = match keys with k1 :: k2 :: _ -> (k1, k2) | _ -> assert false in
  let k9 = some_key ~seed:9L () in
  let st = Store.open_ ~dir () in
  ignore (Store.find_outcome st k1);
  Alcotest.(check bool) "new key misses" true (Option.is_none (Store.find_outcome st k9));
  with_failpoints "store.insert.post_rename=error@1" (fun () ->
      injected (fun () -> Store.put_outcome st k9 (sample_outcome ())));
  ignore (Store.find_outcome st k2);
  Alcotest.(check (list char)) "H, M, I, H in the journal" [ 'H'; 'M'; 'I'; 'H' ]
    (List.map (fun l -> l.[0]) (journal_lines dir));
  let st2 = Store.open_ ~dir () in
  let s = Store.stats st2 in
  Alcotest.(check int) "the insert intent replayed" 1 s.Store.journal_replays;
  Alcotest.(check int64) "hits" 2L s.Store.hits;
  Alcotest.(check int64) "misses" 1L s.Store.misses;
  Alcotest.(check int) "committed entry adopted" 4 s.Store.entries;
  Alcotest.(check int) "verify clean" 0 (List.length (Store.verify st2).Store.fsck_errors)

let test_lookup_log_replay_idempotent () =
  (* a crash after a fold's manifest rename but before the journal
     removal leaves lines the manifest already counts *)
  let dir, keys = populated 3 in
  let st = Store.open_ ~dir () in
  List.iter (fun k -> ignore (Store.find_outcome st k)) keys;
  let lines = journal_lines dir in
  let folded = Store.open_ ~dir () in
  append_raw dir (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let again = Store.open_ ~dir () in
  Alcotest.(check string) "folded lines replay to nothing" (stats_line folded) (stats_line again)

(* An open writes only when it recovers something. The manifest's
   mtime is first set to a fixed past instant, so a rewrite shows even
   within the same second (a rename can reuse the inode number, so
   inodes prove nothing). *)
let test_open_writes_only_on_recovery () =
  let past = 946684800. in
  let manifest dir = Filename.concat dir "manifest.psn" in
  let age dir = Unix.utimes (manifest dir) past past in
  let mtime dir = (Unix.stat (manifest dir)).Unix.st_mtime in
  let bytes dir = In_channel.with_open_bin (manifest dir) In_channel.input_all in
  let dir, keys = populated 3 in
  age dir;
  let before = bytes dir in
  ignore (Store.stats (Store.open_ ~dir ()));
  Alcotest.(check string) "clean open keeps the bytes" before (bytes dir);
  Alcotest.(check (float 0.)) "clean open keeps the mtime" past (mtime dir);
  let st = Store.open_ ~dir () in
  ignore (Store.find_outcome st (List.hd keys));
  Alcotest.(check int) "the hit is journaled" 1 (List.length (journal_lines dir));
  age dir;
  let st2 = Store.open_ ~dir () in
  Alcotest.(check int) "the journal is folded" 0 (List.length (journal_lines dir));
  Alcotest.(check bool) "the fold rewrote the manifest" true (mtime dir > past);
  Alcotest.(check int64) "the hit is kept" 1L (Store.stats st2).Store.hits;
  append_raw dir ("H " ^ Key.to_hex (List.hd keys) ^ " 00");
  ignore (Store.open_ ~dir ());
  Alcotest.(check int) "a torn-only journal is folded away" 0 (List.length (journal_lines dir));
  Sys.remove (manifest dir);
  let st3 = Store.open_ ~dir () in
  Alcotest.(check bool) "a rescan writes the manifest again" true (Sys.file_exists (manifest dir));
  Alcotest.(check int) "the rescan finds every entry" 3 (Store.stats st3).Store.entries

let test_runner_stores_arity () =
  let trace = sample_trace () in
  let spec = { Core.Runner.workload; seeds = [ 1000L ] } in
  let st = Store.open_ ~dir:(fresh_dir ()) () in
  let cache =
    Core.Store_memo.runner_cache ~store:st ~trace_hash:(Key.trace_hash trace) ~workload
      ~algo:"direct" ()
  in
  Alcotest.check_raises "one cache for two factories"
    (Invalid_argument "Runner: need one cache per factory") (fun () ->
      ignore
        (Core.Runner.outcomes_many ~jobs:1 ~stores:[ cache ] ~trace ~spec
           ~factories:[ Core.Direct.factory; Core.Epidemic.factory ]
           ()))

let () =
  Alcotest.run "store"
    [
      ( "fnv",
        [
          Alcotest.test_case "vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "hex" `Quick test_fnv_hex;
          Alcotest.test_case "chaining" `Quick test_fnv_chaining;
        ] );
      ( "codec",
        [
          Alcotest.test_case "trace round-trip" `Quick test_codec_trace_roundtrip;
          Alcotest.test_case "outcome round-trip" `Quick test_codec_outcome_roundtrip;
          Alcotest.test_case "metrics round-trip" `Quick test_codec_metrics_roundtrip;
          Alcotest.test_case "metrics nan round-trip" `Quick test_codec_metrics_nan_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_codec_kind_mismatch;
          Alcotest.test_case "truncation" `Quick test_codec_truncated;
          Alcotest.test_case "format version pinned" `Quick test_codec_version_pinned;
          Alcotest.test_case "frame bytes pinned" `Quick test_codec_frames_pinned;
          Alcotest.test_case "CRC matches a bitwise reference" `Quick test_codec_crc_reference;
          Alcotest.test_case "outcome errors pinned" `Quick test_codec_errors_pinned;
        ] );
      ("codec-properties", qcheck_codec);
      ("key", [ Alcotest.test_case "sensitivity" `Quick test_key_sensitivity ]);
      ( "store",
        [
          Alcotest.test_case "put/find/stats" `Quick test_store_put_find;
          Alcotest.test_case "reopen and rescan" `Quick test_store_reopen;
          Alcotest.test_case "corruption: verify, miss, repair" `Quick
            test_store_corruption_repair;
          Alcotest.test_case "gc evicts in access order" `Quick test_store_gc_order;
          Alcotest.test_case "enumeration round-trip" `Quick test_store_enumeration_roundtrip;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "orphaned tmp files swept" `Quick test_store_tmp_sweep;
          Alcotest.test_case "insert crash windows" `Quick test_store_insert_crash_windows;
          Alcotest.test_case "gc crash window" `Quick test_store_gc_crash_window;
        ] );
      ( "lookup-log",
        [
          Alcotest.test_case "warm hits replay as no recovery" `Quick
            test_lookup_log_warm_replays_nothing;
          Alcotest.test_case "reopen matches stats and LRU order" `Quick
            test_lookup_log_reopen_matches;
          Alcotest.test_case "torn final line ignored" `Quick test_lookup_log_torn_line;
          Alcotest.test_case "journal bounded by entries + 1" `Quick test_lookup_log_bounded;
          Alcotest.test_case "lookups around a crashed put" `Quick
            test_lookup_log_with_crashed_put;
          Alcotest.test_case "folded lines replay to nothing" `Quick
            test_lookup_log_replay_idempotent;
          Alcotest.test_case "open writes only on recovery" `Quick
            test_open_writes_only_on_recovery;
        ] );
      ( "runner",
        [
          Alcotest.test_case "warm replay is bit-identical across jobs" `Quick
            test_runner_warm_bit_identical;
          Alcotest.test_case "stores arity validated" `Quick test_runner_stores_arity;
        ] );
    ]
