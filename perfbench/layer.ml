(* Bench-side layer spans.

   Every call the benchmark makes into a toolkit goes through [call],
   naming the layer.  With tracing off it is a plain call.  With tracing
   on it records a Dyn_obs.Trace span named "pb:<layer>" on the calling
   domain, with the words allocated by the calling domain during the
   call as a span argument, so per-layer self time, call counts and
   allocation are measured from outside the program.  [unit_span]
   records the parent span of one session or iteration, with its id.

   Spans the toolkits record themselves while tracing is on share the
   ring but are ignored by [summary]: only "pb:" spans count. *)

module Trace = Dyn_obs.Trace

let prefix = "pb:"
let unit_prefix = "pb-unit:"

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let timed f =
  let w0 = alloc_words () in
  let t0 = Trace.now_ns () in
  let r = f () in
  let t1 = Trace.now_ns () in
  let words = alloc_words () -. w0 in
  (r, t0, t1, words)

let call name f =
  if not (Trace.is_enabled ()) then f ()
  else
    let r, t0, t1, words = timed f in
    Trace.complete ~t0_ns:t0 ~t1_ns:t1
      ~args:[ ("alloc_words", Printf.sprintf "%.0f" words) ]
      (prefix ^ name);
    r

let unit_span kind id f =
  if not (Trace.is_enabled ()) then f ()
  else
    let r, t0, t1, _ = timed f in
    Trace.complete ~t0_ns:t0 ~t1_ns:t1
      ~args:[ ("id", string_of_int id) ]
      (unit_prefix ^ kind);
    r

let start () =
  Trace.clear ();
  (* large enough that no bench span is ever dropped; [summary] checks *)
  Trace.set_capacity 4_000_000;
  Trace.set_enabled true

let stop () = Trace.set_enabled false

type layer_stat = {
  mutable calls : int;
  mutable self_ns : int;
  mutable words : float;
}

type summary = {
  layers : (string * string, layer_stat) Hashtbl.t;
      (** keyed by (unit kind, layer): a layer's spans inside sessions and
          inside run iterations are kept apart *)
  units : (string * int * int) list;
      (** (kind, duration ns, ns covered by direct layer children) *)
}

let strip p s = String.sub s (String.length p) (String.length s - String.length p)
let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Self time = duration minus the part covered by direct bench-span
   children.  Bench spans on one domain nest strictly (they come from
   sequential calls), so a start-ordered stack walk finds each span's
   parent and enclosing unit. *)
let summary () : summary =
  if Trace.dropped () > 0 then failwith "trace ring dropped bench spans";
  let evs =
    Trace.events ()
    |> List.filter (fun e ->
           e.Trace.ev_level = "span"
           && (has_prefix prefix e.Trace.ev_name || has_prefix unit_prefix e.Trace.ev_name))
    |> List.sort (fun a b ->
           compare
             (a.Trace.ev_tid, a.Trace.ev_ts_ns, -a.Trace.ev_dur_ns)
             (b.Trace.ev_tid, b.Trace.ev_ts_ns, -b.Trace.ev_dur_ns))
    |> Array.of_list
  in
  let n = Array.length evs in
  let child_ns = Array.make n 0 in
  let unit_of = Array.make n "" in
  let stack = ref [] in
  let ends i = evs.(i).Trace.ev_ts_ns + evs.(i).Trace.ev_dur_ns in
  Array.iteri
    (fun i e ->
      let rec pop () =
        match !stack with
        | j :: rest when evs.(j).Trace.ev_tid <> e.Trace.ev_tid || ends j <= e.Trace.ev_ts_ns ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ ->
          child_ns.(j) <- child_ns.(j) + e.Trace.ev_dur_ns;
          unit_of.(i) <- unit_of.(j)
      | [] -> ());
      if has_prefix unit_prefix e.Trace.ev_name then
        unit_of.(i) <- strip unit_prefix e.Trace.ev_name;
      stack := i :: !stack)
    evs;
  let layers = Hashtbl.create 32 in
  let units = ref [] in
  Array.iteri
    (fun i e ->
      let name = e.Trace.ev_name in
      if has_prefix unit_prefix name then
        units := (unit_of.(i), e.Trace.ev_dur_ns, child_ns.(i)) :: !units
      else begin
        let key = (unit_of.(i), strip prefix name) in
        let st =
          match Hashtbl.find_opt layers key with
          | Some st -> st
          | None ->
              let st = { calls = 0; self_ns = 0; words = 0. } in
              Hashtbl.replace layers key st;
              st
        in
        st.calls <- st.calls + 1;
        st.self_ns <- st.self_ns + e.Trace.ev_dur_ns - child_ns.(i);
        st.words <-
          st.words
          +. (try float_of_string (List.assoc "alloc_words" e.Trace.ev_args)
              with Not_found | Failure _ -> 0.)
      end)
    evs;
  { layers; units = List.rev !units }

let find s ~unit name =
  match Hashtbl.find_opt s.layers (unit, name) with
  | Some st -> st
  | None -> { calls = 0; self_ns = 0; words = 0. }
