(* Hierarchical span tracing and a leveled structured event log.

   Spans are recorded as *complete* events — begin timestamp plus
   duration — on the recording domain's track, which is exactly the
   Chrome trace-event "ph":"X" model: Perfetto reconstructs nesting
   from time containment per track, and we additionally record the
   lexical parent (a per-domain span stack) in the event so the NDJSON
   export carries the hierarchy explicitly.

   The clock is monotonic-by-construction: gettimeofday scaled to ns,
   clamped through an atomic high-water mark so a wall-clock step
   backwards can never produce a negative duration (the toolchain has
   no mtime/CLOCK_MONOTONIC binding; the clamp is the portable
   substitute and the error is bounded by the step size).

   Recording is off by default and costs one branch when off.  When on,
   each event takes a global mutex for the ring append — tracing is for
   understanding per-job structure, not for counting packets; the
   always-on counting lives in Registry.  The ring is bounded: once
   [capacity] events are held the oldest are dropped and counted in
   [dropped], so a long-lived daemon cannot leak its heap into a trace
   nobody scrapes.

   Caveat: the parent stack is per *domain*.  Systhreads sharing a
   domain (rvserved's connection readers on domain 0) can interleave
   pushes, so spans opened on reader threads may record a sibling's
   parent; worker domains run one job at a time and nest exactly. *)

(* --- monotonic clock ------------------------------------------------------- *)

let last_ns = Atomic.make 0

let now_ns () =
  let raw = int_of_float (Unix.gettimeofday () *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last_ns in
    if raw <= prev then prev
    else if Atomic.compare_and_set last_ns prev raw then raw
    else clamp ()
  in
  clamp ()

(* --- events ---------------------------------------------------------------- *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  ev_name : string;
  ev_tid : int; (* domain id of the recording domain *)
  ev_ts_ns : int; (* begin time *)
  ev_dur_ns : int; (* 0 for instants *)
  ev_parent : string; (* "" = root *)
  ev_level : string; (* "span" for spans, else the log level *)
  ev_args : (string * string) list;
}

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let mu = Mutex.create ()
let ring : event Queue.t = Queue.create ()
let capacity = ref 65_536
let dropped_count = ref 0

let set_capacity n = if n > 0 then capacity := n
let dropped () = !dropped_count

let record ev =
  Mutex.lock mu;
  Queue.push ev ring;
  while Queue.length ring > !capacity do
    ignore (Queue.pop ring);
    incr dropped_count
  done;
  Mutex.unlock mu

let clear () =
  Mutex.lock mu;
  Queue.clear ring;
  dropped_count := 0;
  Mutex.unlock mu

let events () : event list =
  Mutex.lock mu;
  let l = List.of_seq (Queue.to_seq ring) in
  Mutex.unlock mu;
  l

(* --- the per-domain span stack --------------------------------------------- *)

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let parent () =
  match !(Domain.DLS.get stack_key) with [] -> "" | p :: _ -> p

let push name =
  let s = Domain.DLS.get stack_key in
  s := name :: !s

let pop () =
  let s = Domain.DLS.get stack_key in
  match !s with [] -> () | _ :: t -> s := t

(* --- span recording -------------------------------------------------------- *)

let complete ?(args = []) ?parent:par ?tid ~t0_ns ~t1_ns name =
  if Atomic.get enabled then
    record
      {
        ev_name = name;
        ev_tid = (match tid with Some t -> t | None -> (Domain.self () :> int));
        ev_ts_ns = t0_ns;
        ev_dur_ns = (if t1_ns > t0_ns then t1_ns - t0_ns else 0);
        ev_parent = (match par with Some p -> p | None -> parent ());
        ev_level = "span";
        ev_args = args;
      }

(* Run [f] as a span named [name], then hand its duration to
   [observe] — also when [f] raises.  The span is recorded (and nests)
   only while tracing is on. *)
let span_with ~args ~observe name f =
  let on = Atomic.get enabled in
  let par = if on then parent () else "" in
  if on then push name;
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    observe (t1 - t0);
    if on then begin
      pop ();
      complete ~args ~parent:par ~t0_ns:t0 ~t1_ns:t1 name
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception exn ->
      finish ();
      raise exn

let with_span ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else span_with ~args ~observe:ignore name f

let timed h name f = span_with ~args:[] ~observe:(Registry.observe h) name f

let log ?(level = Info) ?(fields = []) msg =
  if Atomic.get enabled then
    record
      {
        ev_name = msg;
        ev_tid = (Domain.self () :> int);
        ev_ts_ns = now_ns ();
        ev_dur_ns = 0;
        ev_parent = parent ();
        ev_level = level_name level;
        ev_args = fields;
      }

(* --- export ---------------------------------------------------------------- *)

module J = Dyn_util.Jsonw

let int i = J.Int (Int64.of_int i)
let strs kvs = List.map (fun (k, v) -> (k, J.String v)) kvs

(* Chrome trace-event JSON (the JSON-object format Perfetto and
   chrome://tracing load).  Timestamps are integer microseconds so the
   file stays parseable by integer-only readers (Jsonw); sub-us spans
   round up to 1 us rather than vanishing.  Events are written one at a
   time, so a large ring never exists twice as a JSON tree. *)
let chrome_event ev =
  let phase =
    if ev.ev_level = "span" then
      [
        ("ph", J.String "X");
        ("ts", int (ev.ev_ts_ns / 1000));
        ("dur", int (max 1 ((ev.ev_dur_ns + 999) / 1000)));
      ]
    else
      [ ("ph", J.String "i"); ("ts", int (ev.ev_ts_ns / 1000)); ("s", J.String "t") ]
  in
  let args =
    (if ev.ev_parent = "" then [] else [ ("parent", ev.ev_parent) ])
    @ (if ev.ev_level = "span" then [] else [ ("level", ev.ev_level) ])
    @ ev.ev_args
  in
  J.Obj
    ((("name", J.String ev.ev_name) :: phase)
    @ [ ("pid", int 0); ("tid", int ev.ev_tid); ("args", J.Obj (strs args)) ])

let chrome_json () : string =
  let evs = events () in
  let buf = Buffer.create (256 + (List.length evs * 128)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      J.write_to buf (chrome_event ev))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf

(* NDJSON structured event log: one object per line, fixed key order
   (ts_ns, level, name, dur_ns, tid, parent, then event fields). *)
let ndjson () : string =
  let evs = events () in
  let buf = Buffer.create (List.length evs * 128) in
  List.iter
    (fun ev ->
      J.write_to buf
        (J.Obj
           ([
              ("ts_ns", int ev.ev_ts_ns);
              ("level", J.String ev.ev_level);
              ("name", J.String ev.ev_name);
              ("dur_ns", int ev.ev_dur_ns);
              ("tid", int ev.ev_tid);
              ("parent", J.String ev.ev_parent);
            ]
           @ strs ev.ev_args));
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A path ending in .ndjson gets the event log; anything else the
   Chrome trace-event JSON. *)
let write_out path =
  if Filename.check_suffix path ".ndjson" then write_file path (ndjson ())
  else write_file path (chrome_json ())
