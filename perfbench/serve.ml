(* rvserved traffic: the daemon in its own process with one worker
   domain, and an open-loop client on one connection with two threads —
   a sender that writes each request at its due time whether or not
   earlier ones were answered, and a receiver that timestamps each
   response line as it arrives.  Latency runs from the request's due
   time, so a stall also charges the requests queued behind it. *)

module Wire = Serve_api.Wire
module J = Dyn_util.Jsonw
module Prng = Check_api.Prng

type daemon = { pid : int; socket : string; trace_out : string option }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* Start the daemon and wait until it answers a ping. *)
let started = ref 0

let start ~exe ~dir ~trace =
  incr started;
  let file ext = Filename.concat dir (Printf.sprintf "rvserved-%d.%s" !started ext) in
  let socket = file "sock" in
  let trace_out = if trace then Some (file "ndjson") else None in
  let args =
    [ exe; "--socket"; socket; "--domains"; "1"; "--parse-domains"; "1" ]
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket; trace_out } in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match connect socket with
    | fd ->
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        output_string oc
          (Wire.encode_request { Wire.rq_id = 0L; rq_path = ""; rq_action = Wire.Ping });
        output_char oc '\n';
        flush oc;
        ignore (input_line ic);
        Unix.close fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        (* a fine poll: the start is part of setup_s *)
        Unix.sleepf 0.001;
        wait ()
  in
  (try wait ()
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
  d

(* Ask the daemon to shut down (it writes its trace on the way out) and
   reap it; kill it if it does not go. *)
let stop (d : daemon) =
  (try
     let fd = connect d.socket in
     let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
     output_string oc
       (Wire.encode_request { Wire.rq_id = 0L; rq_path = ""; rq_action = Wire.Shutdown });
     output_char oc '\n';
     flush oc;
     (try ignore (input_line ic) with End_of_file -> ());
     Unix.close fd
   with Unix.Unix_error _ | Sys_error _ -> Unix.kill d.pid Sys.sigkill);
  let deadline = Unix.gettimeofday () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

(* --- the request stream ---------------------------------------------------- *)

let kinds = [| "parse"; "lint"; "rewrite"; "verify"; "trace" |]

(* Action mix in percent, in [kinds] order. *)
let kind_weights = [| 30; 20; 20; 15; 15 |]

(* main and the first driver have the same shape in every corpus of a
   size, whatever the seed, so cold job costs do not depend on it *)
let spec = Patch_api.Rewriter.counter_spec ~blocks:[ "main"; "d0" ] ()

let action_of_kind = function
  | "parse" -> Wire.Parse
  | "lint" -> Wire.Lint
  | "rewrite" -> Wire.Rewrite spec
  | "verify" -> Wire.Verify spec
  | _ ->
      Wire.Trace
        { Wire.ts_blocks = true; ts_calls = false; ts_returns = false; ts_mem = false;
          ts_funcs = [ "main"; "d0" ] }

type request = { id : int; due : float; phase : int; mutatee : int; kind : int }

(* [phases] = (rate per second, seconds); due times are back to back.
   Mutatees are drawn with Zipf(1) weights over a seeded ranking, kinds
   by [kind_weights].  The first phase touches every (mutatee, kind) key
   for the first time at evenly spaced positions, and its other requests
   only repeat keys already touched: every cold compute happens at a
   known point of the first phase and every later request reads a warm
   cache. *)
let plan ~seed ~n_mutatees (phases : (float * float) list) : request array =
  let rng = Prng.of_seed_index ~seed:(Int64.of_int seed) ~index:7 in
  let rank = Array.init n_mutatees Fun.id in
  Corpus.shuffle rng rank;
  let zipf = Array.init n_mutatees (fun k -> 1. /. float_of_int (k + 1)) in
  let ztotal = Array.fold_left ( +. ) 0. zipf in
  let pick_mutatee () =
    let u = float_of_int (Prng.int rng 1_000_000) /. 1e6 *. ztotal in
    let rec go k acc =
      if k = n_mutatees - 1 || acc +. zipf.(k) > u then rank.(k) else go (k + 1) (acc +. zipf.(k))
    in
    go 0 0.
  in
  let pick_kind () =
    let u = Prng.int rng 100 in
    let rec go k acc = if acc + kind_weights.(k) > u then k else go (k + 1) (acc + kind_weights.(k)) in
    go 0 0
  in
  let n_kinds = Array.length kinds in
  let keys = Array.init (n_mutatees * n_kinds) Fun.id in
  Corpus.shuffle rng keys;
  let n_keys = Array.length keys in
  let touched = Array.make n_keys false and n_touched = ref 0 in
  let reqs = ref [] and id = ref 0 and t0 = ref 0. in
  List.iteri
    (fun phase (rate, secs) ->
      let n = int_of_float (rate *. secs) in
      if phase = 0 && n < n_keys then invalid_arg "Serve.plan: first phase shorter than the key count";
      for i = 0 to n - 1 do
        incr id;
        let key =
          if phase = 0 && i * n_keys mod n < n_keys then begin
            (* a scheduled first touch *)
            let k = keys.(i * n_keys / n) in
            touched.(k) <- true;
            incr n_touched;
            k
          end
          else
            let k = (pick_mutatee () * n_kinds) + pick_kind () in
            (* other draws stay on warm keys until every key is touched *)
            if touched.(k) then k else keys.(Prng.int rng !n_touched)
        in
        let mutatee, kind = (key / n_kinds, key mod n_kinds) in
        reqs := { id = !id; due = !t0 +. (float_of_int i /. rate); phase; mutatee; kind } :: !reqs
      done;
      t0 := !t0 +. secs)
    phases;
  Array.of_list (List.rev !reqs)

type response = {
  req : request;
  latency_ms : float;  (** from due time; infinity when not ok *)
  ok : bool;
  cached : bool;
  same : bool;  (** payload byte-identical to the first one of its key *)
}

type outcome = {
  responses : response array;  (** in request order *)
  late_ms : float array;  (** how late the sender wrote each request *)
  phase_start : float array;  (** per phase: first due time, from stream start *)
  phase_end : float array;  (** per phase: last arrival, from stream start *)
}

(* --- reading responses in place ---

   The receiver timestamps each line and checks it without decoding the
   JSON or copying the payload: the wire format writes id, ok, hash,
   cached and elapsed_us first, in that order, and splices the payload
   last, verbatim. *)

let find (b : Bytes.t) ~from ~until pat =
  let k = String.length pat in
  let rec go i =
    if i + k > until then -1
    else
      let rec eq j = j = k || (Bytes.unsafe_get b (i + j) = String.unsafe_get pat j && eq (j + 1)) in
      if eq 0 then i else go (i + 1)
  in
  go from

let int_at (b : Bytes.t) i =
  let neg = Bytes.get b i = '-' in
  let rec go i acc =
    match Bytes.get b i with '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48) | _ -> acc
  in
  let v = go (if neg then i + 1 else i) 0 in
  if neg then -v else v

let region_equals (b : Bytes.t) off len s =
  String.length s = len
  &&
  let rec go i = i = len || (Bytes.unsafe_get b (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let spin_s = 0.0002

let run_stream (d : daemon) ~(paths : string array) (reqs : request array) : outcome =
  let n = Array.length reqs in
  let fd = connect d.socket in
  let oc = Unix.out_channel_of_descr fd in
  let lines =
    Array.map
      (fun r ->
        Wire.encode_request
          { Wire.rq_id = Int64.of_int r.id; rq_path = paths.(r.mutatee);
            rq_action = action_of_kind kinds.(r.kind) }
        ^ "\n")
      reqs
  in
  let sent = Array.make n 0. in
  let start = Unix.gettimeofday () +. 0.05 in
  let sender =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i r ->
            (* sleep to just short of the due time, then yield until it:
               a plain sleep overshoots by a variable ~0.1 ms *)
            let due = start +. r.due in
            let wait = due -. Unix.gettimeofday () -. spin_s in
            if wait > 0. then Unix.sleepf wait;
            while Unix.gettimeofday () < due do
              Thread.yield ()
            done;
            output_string oc lines.(i);
            flush oc;
            sent.(i) <- Unix.gettimeofday ())
          reqs)
      ()
  in
  (* request ids are 1..n in order *)
  let arrived = Array.make n nan and ok = Array.make n false in
  let cached = Array.make n false and same = Array.make n false in
  let first = Hashtbl.create 128 in
  let on_line b a e t =
    let id = int_at b (a + 6) in
    if id >= 1 && id <= n then begin
      let i = id - 1 in
      arrived.(i) <- t;
      let p = find b ~from:a ~until:e ",\"payload\":" in
      let head = if p < 0 then e else p in
      ok.(i) <- find b ~from:a ~until:head "\"ok\":true" >= 0;
      cached.(i) <- find b ~from:a ~until:head "\"cached\":true" >= 0;
      if ok.(i) && p >= 0 then begin
        let off = p + 11 in
        let len = e - off - 1 in
        let key = (reqs.(i).mutatee, reqs.(i).kind) in
        match Hashtbl.find_opt first key with
        | Some s -> same.(i) <- region_equals b off len s
        | None ->
            Hashtbl.replace first key (Bytes.sub_string b off len);
            same.(i) <- true
      end
    end
  in
  let buf = ref (Bytes.create (1 lsl 20)) and fill = ref 0 and seen = ref 0 in
  while !seen < n do
    if !fill = Bytes.length !buf then begin
      let b' = Bytes.create (2 * !fill) in
      Bytes.blit !buf 0 b' 0 !fill;
      buf := b'
    end;
    let r = Unix.read fd !buf !fill (Bytes.length !buf - !fill) in
    if r = 0 then failwith "rvserved closed the connection";
    let t = Unix.gettimeofday () in
    let old = !fill in
    fill := !fill + r;
    let a = ref 0 in
    let rec lines from =
      match find !buf ~from ~until:!fill "\n" with
      | -1 -> ()
      | e ->
          on_line !buf !a e t;
          incr seen;
          a := e + 1;
          lines (e + 1)
    in
    lines old;
    Bytes.blit !buf !a !buf 0 (!fill - !a);
    fill := !fill - !a
  done;
  Thread.join sender;
  Unix.close fd;
  let n_phases = 1 + Array.fold_left (fun a r -> max a r.phase) 0 reqs in
  let phase_end = Array.make n_phases 0. and phase_start = Array.make n_phases infinity in
  let responses =
    Array.mapi
      (fun i rq ->
        phase_start.(rq.phase) <- min phase_start.(rq.phase) rq.due;
        phase_end.(rq.phase) <- max phase_end.(rq.phase) (arrived.(i) -. start);
        {
          req = rq;
          latency_ms = (if ok.(i) then (arrived.(i) -. (start +. rq.due)) *. 1e3 else infinity);
          ok = ok.(i);
          cached = cached.(i);
          same = same.(i);
        })
      reqs
  in
  {
    responses;
    late_ms = Array.mapi (fun i r -> (sent.(i) -. (start +. r.due)) *. 1e3) reqs;
    phase_start;
    phase_end;
  }

(* Failed requests: not ok, or a payload that differs from the first
   payload of its (mutatee, kind) key. *)
let check (o : outcome) : int * string list =
  let bad = ref 0 and msgs = ref [] in
  Array.iter
    (fun r ->
      let fail msg =
        incr bad;
        if List.length !msgs < 5 then msgs := Printf.sprintf "request %d: %s" r.req.id msg :: !msgs
      in
      if not r.ok then fail "failed"
      else if not r.same then fail "payload differs from the key's first payload")
    o.responses;
  (!bad, List.rev !msgs)

(* --- the daemon's own spans ------------------------------------------------ *)

type span = { name : string; ts : int; dur : int; tid : int }

let read_trace path : span list =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let j = J.of_string line in
        if J.member "level" j = J.String "span" then
          go
            ({
               name = J.to_str (J.member "name" j);
               ts = J.to_int (J.member "ts_ns" j);
               dur = J.to_int (J.member "dur_ns" j);
               tid = J.to_int (J.member "tid" j);
             }
            :: acc)
        else go acc
  in
  go []

(* Durations in ms of the spans named [name]; an "execute" span is
   attributed to the job:<kind> span that encloses it on its track. *)
let durations_ms spans name = List.filter_map (fun s -> if s.name = name then Some (float_of_int s.dur /. 1e6) else None) spans

let execute_ms_by_kind spans : (string * float list) list =
  let jobs = List.filter (fun s -> String.length s.name > 4 && String.sub s.name 0 4 = "job:") spans in
  let kind_of s =
    List.find_map
      (fun j ->
        if j.tid = s.tid && j.ts <= s.ts && s.ts + s.dur <= j.ts + j.dur then
          Some (String.sub j.name 4 (String.length j.name - 4))
        else None)
      jobs
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.name = "execute" then
        match kind_of s with
        | Some k ->
            Hashtbl.replace tbl k ((float_of_int s.dur /. 1e6) :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
        | None -> ())
    spans;
  Array.to_list (Array.map (fun k -> (k, Option.value ~default:[] (Hashtbl.find_opt tbl k))) kinds)
