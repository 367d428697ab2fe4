(* Host-speed calibration.

   The benchmark runs on shared virtual CPUs whose speed wanders: the
   same run iteration has taken 0.7 s in one stretch and over 2 s in
   another, with little of it reported as stolen time.  A fixed kernel
   that belongs to the benchmark, not to the toolkits, is timed between
   units of work; a unit's wall time is scaled by [ref_s] over the
   kernel's time around it, which gives the unit's time at the speed the
   host had when [ref_s] was measured.  A change to the toolkits cannot
   move the kernel, so a saving in them shows in full.

   The kernel is a small interpreter loop over a register file, like the
   simulator's, that reads and writes an open-addressed table, like the
   symbol and decode tables.  It allocates nothing, so it never
   runs a slice of the collector: a sample taken right after a unit that
   left much garbage would otherwise pay for sweeping it, and read the
   host as slower than it is. *)

let steps = 4_000_000
let prog = Array.init 64 (fun i -> i * 7919 land 7)
let regs = Array.make 8 0
let table = Array.make 8192 0

let kernel () =
  Array.fill regs 0 8 0;
  Array.fill table 0 8192 0;
  let pc = ref 0 and acc = ref 0 in
  for step = 1 to steps do
    let op = prog.(!pc) in
    let a = regs.(op) in
    let v =
      match op with
      | 0 -> !acc + a
      | 1 -> !acc * 3
      | 2 ->
          let h = 2 * (step land 4095) in
          table.(h) <- step;
          table.(h + 1) <- !acc;
          !acc
      | 3 ->
          let h = 2 * (step * 31 land 4095) in
          if table.(h) <> 0 then table.(h + 1) lxor !acc else !acc
      | 4 -> !acc - step
      | 5 -> !acc asr 1
      | 6 -> !acc lor a
      | _ -> - !acc
    in
    regs.(op land 7) <- v;
    acc := v;
    pc := (!pc + 1 + (v land 1)) land 63
  done;
  !acc

(* The kernel's median time on the host the baseline in README.md was
   taken on (an Intel Xeon at 2.0 GHz, two virtual CPUs, OCaml 5.1.1),
   while it was taken. *)
let ref_s = 0.015

(* One timed run of the kernel, in seconds. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* [dt] seconds of work done while the kernel took [k] seconds, at the
   reference speed. *)
let scale ~k dt = dt *. ref_s /. k
