(* The benchmark's own test: its inputs are a pure function of the seed,
   and the counts it reports as deterministic are. *)

open Perfbench

let fail fmt = Printf.ksprintf failwith fmt

let () =
  let a = Corpus.generate ~seed:5 24 and b = Corpus.generate ~seed:5 24 in
  if a.Corpus.elf <> b.Corpus.elf then fail "same seed, different corpus bytes";
  let c = Corpus.generate ~seed:6 24 in
  if c.Corpus.sha256 = a.Corpus.sha256 then fail "different seed, same corpus hash";
  (* stratified shapes: the seed moves constants, not the block count *)
  let cfg = { Session.domains = 1; points = Session.Every_block } in
  let s1 = Session.run cfg a.Corpus.elf and s2 = Session.run cfg b.Corpus.elf in
  let s3 = Session.run cfg c.Corpus.elf in
  if Session.digest s1 <> Session.digest s2 then fail "same seed, different session";
  if s1.Session.counts.Session.blocks <> s3.Session.counts.Session.blocks then
    fail "block count depends on the seed";
  let counts (it : Runs.iteration) =
    List.map
      (fun v -> (v.Runs.name, v.Runs.cycles, v.Runs.instret, v.Runs.counter, v.Runs.points))
      it.Runs.vs
  in
  let m = Runs.setup ~n:6 ~reps:1 in
  let i1 = Runs.iteration m and i2 = Runs.iteration m in
  if counts i1 <> counts i2 then fail "run counts differ between iterations";
  (match Runs.check (Runs.reference m) i1 with
  | [] -> ()
  | msgs -> fail "run check: %s" (String.concat "; " msgs));
  (* the calibration kernel must not run the collector *)
  ignore (Calib.kernel ());
  let w0 = Gc.minor_words () in
  let k = Calib.kernel () in
  let words = Gc.minor_words () -. w0 in
  if words > 0. then fail "calibration kernel allocates %.0f words" words;
  if k <> Calib.kernel () then fail "calibration kernel is not deterministic";
  print_endline "perfbench: deterministic inputs and counts"
