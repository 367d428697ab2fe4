(* The patch manifest: a machine-readable record of everything a rewrite
   did to the binary — one entry per instrumented block with its chosen
   springboard, trampoline address and the registers each woven snippet
   may write.  Emitted by [Rewriter.plan] and consumed by the lint
   verifier, which re-parses the rewritten ELF and checks the manifest's
   claims against what is actually encoded (springboard targets on
   instruction boundaries, relocated def/use sets, stack balance, §4.3
   dead-register claims). *)

module J = Dyn_util.Jsonw

type insertion = {
  mi_addr : int64; (* insn the snippet runs before / branch of the edge *)
  mi_edge : bool; (* taken-edge insertion *)
  mi_spilled : bool; (* snippet borrowed registers (save/restore path) *)
  mi_clobbers : Riscv.Reg.t list; (* dead-allocated scratch, left modified *)
  mi_code_defs : Riscv.Reg.t list; (* every reg the woven code may write *)
}

type entry = {
  me_block : int64;
  me_block_end : int64; (* exclusive *)
  me_func : int64; (* entry of the owning function *)
  me_tramp : int64; (* trampoline address the springboard targets *)
  me_strategy : string; (* c.j / jal / auipc+jalr / trap *)
  me_sb_len : int; (* springboard byte length *)
  me_sb_scratch : Riscv.Reg.t option; (* register an auipc+jalr consumed *)
  me_insertions : insertion list;
}

type t = {
  m_tramp_base : int64;
  m_tramp_size : int;
  m_data_base : int64;
  m_data_size : int;
  m_traps : (int64 * int64) list; (* trap springboard pc -> trampoline *)
  m_entries : entry list; (* in block-address order *)
}

(* Registers an assembler item list may write once encoded.  Label
   pseudo-items (J/Br/Tail_l) can relax to far forms through the t1
   scratch register, so t1 is charged conservatively; Call_l additionally
   links through ra. *)
let defs_of_items (items : Riscv.Asm.item list) : Riscv.Reg.t list =
  let open Riscv in
  List.concat_map
    (function
      | Asm.Insn i -> Insn.defs i
      | Asm.Li (rd, _) | Asm.La (rd, _) -> [ rd ]
      | Asm.J _ | Asm.Tail_l _ | Asm.Br _ -> [ Reg.t1 ]
      | Asm.Call_l _ -> [ Reg.ra; Reg.t1 ]
      | Asm.Label _ | Asm.Raw _ | Asm.D8 _ | Asm.D32 _ | Asm.D64 _
      | Asm.Align _ ->
          [])
    items
  |> List.sort_uniq compare

(* --- JSON ----------------------------------------------------------------- *)

let json_of_regs rs = J.List (List.map (fun r -> J.Int (Int64.of_int r)) rs)

let regs_of_json j =
  List.map (fun x -> Int64.to_int (J.to_int64 x)) (J.to_list j)

let json_of_insertion i =
  J.Obj
    [
      ("addr", J.Int i.mi_addr);
      ("edge", J.Bool i.mi_edge);
      ("spilled", J.Bool i.mi_spilled);
      ("clobbers", json_of_regs i.mi_clobbers);
      ("code_defs", json_of_regs i.mi_code_defs);
    ]

let insertion_of_json j =
  {
    mi_addr = J.to_int64 (J.member "addr" j);
    mi_edge = J.to_bool (J.member "edge" j);
    mi_spilled = J.to_bool (J.member "spilled" j);
    mi_clobbers = regs_of_json (J.member "clobbers" j);
    mi_code_defs = regs_of_json (J.member "code_defs" j);
  }

let json_of_entry e =
  J.Obj
    [
      ("block", J.Int e.me_block);
      ("block_end", J.Int e.me_block_end);
      ("func", J.Int e.me_func);
      ("tramp", J.Int e.me_tramp);
      ("strategy", J.String e.me_strategy);
      ("sb_len", J.Int (Int64.of_int e.me_sb_len));
      ( "sb_scratch",
        match e.me_sb_scratch with
        | Some r -> J.Int (Int64.of_int r)
        | None -> J.Null );
      ("insertions", J.List (List.map json_of_insertion e.me_insertions));
    ]

let entry_of_json j =
  {
    me_block = J.to_int64 (J.member "block" j);
    me_block_end = J.to_int64 (J.member "block_end" j);
    me_func = J.to_int64 (J.member "func" j);
    me_tramp = J.to_int64 (J.member "tramp" j);
    me_strategy = J.to_str (J.member "strategy" j);
    me_sb_len = Int64.to_int (J.to_int64 (J.member "sb_len" j));
    me_sb_scratch =
      (match J.member "sb_scratch" j with
      | J.Null -> None
      | v -> Some (Int64.to_int (J.to_int64 v)));
    me_insertions =
      List.map insertion_of_json (J.to_list (J.member "insertions" j));
  }

let to_json m =
  J.Obj
    [
      ("tramp_base", J.Int m.m_tramp_base);
      ("tramp_size", J.Int (Int64.of_int m.m_tramp_size));
      ("data_base", J.Int m.m_data_base);
      ("data_size", J.Int (Int64.of_int m.m_data_size));
      ( "traps",
        J.List
          (List.map
             (fun (o, d) -> J.List [ J.Int o; J.Int d ])
             m.m_traps) );
      ("entries", J.List (List.map json_of_entry m.m_entries));
    ]

let of_json j =
  {
    m_tramp_base = J.to_int64 (J.member "tramp_base" j);
    m_tramp_size = Int64.to_int (J.to_int64 (J.member "tramp_size" j));
    m_data_base = J.to_int64 (J.member "data_base" j);
    m_data_size = Int64.to_int (J.to_int64 (J.member "data_size" j));
    m_traps =
      List.map
        (fun p ->
          match J.to_list p with
          | [ o; d ] -> (J.to_int64 o, J.to_int64 d)
          | _ -> raise (J.Parse_error "bad trap pair"))
        (J.to_list (J.member "traps" j));
    m_entries = List.map entry_of_json (J.to_list (J.member "entries" j));
  }

let to_string m = J.to_string (to_json m)
let of_string s = of_json (J.of_string s)

let write_file path m =
  let oc = open_out path in
  output_string oc (to_string m);
  output_char oc '\n';
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* --- lookups ----------------------------------------------------------------- *)

(* Built once per manifest so per-entry checks stay O(log n):
   [ix_blocks] maps each block address to the first entry listed for
   it; [ix_by_block] holds those entries sorted by block (blocks are
   disjoint, so at most one contains an address); [ix_tramps] is every
   trampoline address, sorted. *)
type index = {
  ix_by_block : entry array;
  ix_blocks : (int64, entry) Hashtbl.t;
  ix_tramps : int64 array;
  ix_tramp_end : int64;
}

(* Number of leading elements of sorted [a] for which [below x] holds. *)
let count_below below a =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if below a.(mid) then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let index m =
  let blocks = Hashtbl.create (List.length m.m_entries) in
  List.iter
    (fun e ->
      if not (Hashtbl.mem blocks e.me_block) then
        Hashtbl.replace blocks e.me_block e)
    m.m_entries;
  let by_block = Array.of_seq (Hashtbl.to_seq_values blocks) in
  Array.sort (fun a b -> Int64.compare a.me_block b.me_block) by_block;
  let tramps = Array.of_list (List.map (fun e -> e.me_tramp) m.m_entries) in
  Array.sort Int64.compare tramps;
  {
    ix_by_block = by_block;
    ix_blocks = blocks;
    ix_tramps = tramps;
    ix_tramp_end = Int64.add m.m_tramp_base (Int64.of_int m.m_tramp_size);
  }

let entry_for ix addr = Hashtbl.find_opt ix.ix_blocks addr

let entry_inside ix addr =
  let k =
    count_below (fun e -> Int64.compare e.me_block addr < 0) ix.ix_by_block
  in
  if k = 0 then None
  else
    let e = ix.ix_by_block.(k - 1) in
    if Int64.compare addr e.me_block_end < 0 then Some e else None

(* The trampoline span owned by [e] ends at the next higher trampoline
   address of any entry (entries share one region, allocated in address
   order), or at the end of the region. *)
let span_end ix e =
  let k = count_below (fun t -> Int64.compare t e.me_tramp <= 0) ix.ix_tramps in
  if k = Array.length ix.ix_tramps then ix.ix_tramp_end
  else if Int64.compare ix.ix_tramps.(k) ix.ix_tramp_end < 0 then ix.ix_tramps.(k)
  else ix.ix_tramp_end
