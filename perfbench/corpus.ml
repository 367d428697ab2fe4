(* Seeded mini-C corpus generator.

   A corpus is a pure function of (seed, function count): the same
   pair always gives the same source text, hence the same ELF bytes and
   the same SHA-256.  Shapes are stratified — every corpus of a given
   size has the same number of loop, dense-switch, call-chain and leaf
   functions, and each shape's control flow is fixed — so the seed moves
   constants, call targets and function order but not the block count.
   That keeps a session's cost comparable across seeds, which is what
   lets the benchmark compare medians taken on different seeds. *)

module Prng = Check_api.Prng

type shape = Loop | Switch | Chain | Leaf

(* Shape mix in percent; call-chain functions only call earlier
   functions of lower chain depth, so every program terminates. *)
let mix = [ (Loop, 35); (Switch, 20); (Chain, 20); (Leaf, 25) ]
let max_chain_depth = 3
let group = 16

type t = {
  n_funcs : int;
  elf : Bytes.t;  (** the written ELF file *)
  sha256 : string;
}

let shape_counts n =
  let counts = List.map (fun (s, pct) -> (s, n * pct / 100)) mix in
  let placed = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  (* rounding leftovers become loops *)
  List.map (fun (s, c) -> if s = Loop then (s, c + n - placed) else (s, c)) counts

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let loop_fn b k rng =
  Printf.bprintf b
    {|
int f%d(int x) {
  int i;
  int s;
  s = x;
  for (i = 0; i < %d; i = i + 1) {
    if ((s & %d) == %d) {
      s = s + i * %d;
    } else {
      s = s - %d;
    }
    if (s > %d) {
      s = s - %d;
    }
  }
  return s;
}
|}
    k (Prng.range rng 3 9) (Prng.range rng 1 7) (Prng.range rng 0 1)
    (Prng.range rng 2 50) (Prng.range rng 1 9) (Prng.range rng 500 5000)
    (Prng.range rng 100 400)

(* Eight consecutive cases: minicc lowers this to a jump table. *)
let switch_fn b k rng =
  Printf.bprintf b "\nint f%d(int x) {\n  switch (x & 7) {\n" k;
  for c = 0 to 7 do
    Printf.bprintf b "    case %d: return x * %d + %d;\n" c (Prng.range rng 1 9)
      (Prng.range rng 0 999)
  done;
  Printf.bprintf b "    default: return %d;\n  }\n}\n" (Prng.range rng 0 99)

let leaf_fn b k rng =
  Printf.bprintf b "\nint f%d(int x) {\n  return (x * %d + %d) ^ (x >> %d);\n}\n" k
    (Prng.range rng 2 99) (Prng.range rng 0 999) (Prng.range rng 1 5)

let chain_fn b k rng ~callee1 ~callee2 =
  Printf.bprintf b
    "\nint f%d(int x) {\n  int t;\n  t = f%d(x + %d);\n  t = t + f%d(t & %d);\n  return t - %d;\n}\n"
    k callee1 (Prng.range rng 1 99) callee2 (Prng.range rng 15 255)
    (Prng.range rng 0 99)

(* Generate the source of an [n]-function corpus. *)
let source ~seed n =
  let rng = Prng.of_seed_index ~seed:(Int64.of_int seed) ~index:n in
  let shapes =
    Array.of_list
      (List.concat_map (fun (s, c) -> List.init c (fun _ -> s)) (shape_counts n))
  in
  shuffle rng shapes;
  (* a chain needs an earlier function to call: keep a non-chain first *)
  (match Array.find_index (fun s -> s <> Chain) shapes with
  | Some i when i > 0 ->
      let t = shapes.(0) in
      shapes.(0) <- shapes.(i);
      shapes.(i) <- t
  | _ -> ());
  let depth = Array.make n 0 in
  let b = Buffer.create (n * 256) in
  Array.iteri
    (fun k s ->
      match s with
      | Loop -> loop_fn b k rng
      | Switch -> switch_fn b k rng
      | Leaf -> leaf_fn b k rng
      | Chain ->
          let rec pick tries =
            let j = Prng.int rng k in
            if depth.(j) < max_chain_depth || tries = 0 then j else pick (tries - 1)
          in
          let pick () =
            let j = pick 16 in
            (* fall back to the first function, which is never a chain *)
            if depth.(j) < max_chain_depth then j else 0
          in
          let c1 = pick () and c2 = pick () in
          depth.(k) <- 1 + max depth.(c1) depth.(c2);
          chain_fn b k rng ~callee1:c1 ~callee2:c2)
    shapes;
  (* main reaches every function through drivers of [group] calls
     each, so no function grows with the corpus *)
  let n_drivers = (n + group - 1) / group in
  for d = 0 to n_drivers - 1 do
    Printf.bprintf b "\nint d%d(int x) {\n  int acc;\n  acc = x;\n" d;
    for k = d * group to min n ((d + 1) * group) - 1 do
      Printf.bprintf b "  acc = acc + f%d(%d);\n" k (Prng.range rng 0 999)
    done;
    Buffer.add_string b "  return acc;\n}\n"
  done;
  Buffer.add_string b "\nint main() {\n  int acc;\n  acc = 0;\n";
  for d = 0 to n_drivers - 1 do
    Printf.bprintf b "  acc = d%d(acc & 65535);\n" d
  done;
  Buffer.add_string b "  print_int(acc);\n  return acc & 255;\n}\n";
  Buffer.contents b

let generate ~seed n =
  let compiled = Minicc.Driver.compile (source ~seed n) in
  let elf = Elfkit.Write.to_bytes compiled.Minicc.Driver.image in
  { n_funcs = n; elf; sha256 = Dyn_util.Sha256.hex_of_bytes elf }
