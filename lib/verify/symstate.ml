(* Symbolic machine state: registers, CSRs and memory as terms over the
   entry-state alphabet, plus the two observation journals (stores and
   opaque effects, in program order) that the equivalence checker
   compares.

   The state is persistent so the executor can fork it at unresolved
   branches. *)

module Imap = Map.Make (Int)

type store = { st_width : int; st_addr : Sterm.t; st_value : Sterm.t }
type effect = { ef_name : string; ef_args : Sterm.t list }

type t = {
  xregs : Sterm.t Imap.t; (* absent entry = still the initial value *)
  fregs : Sterm.t Imap.t;
  csrs : Sterm.t Imap.t;
  fcsr : Sterm.t;
  resv : Sterm.t; (* reservation token *)
  mem : Sterm.mem; (* program-visible store chain, for loads *)
  stores : store list; (* journal, reverse program order *)
  effects : effect list; (* journal, reverse program order *)
  sp_off : int64 option; (* sp as entry-sp-relative offset, if known *)
  sp_min : int64; (* lowest sp offset witnessed *)
  n_ecalls : int; (* sequences the havoc terms of ecall returns *)
}

let x_init i = Sterm.Init (Printf.sprintf "x%d" i)
let f_init i = Sterm.Init (Printf.sprintf "f%d" i)
let csr_init i = Sterm.Init (Printf.sprintf "csr%d" i)

let init =
  {
    xregs = Imap.empty;
    fregs = Imap.empty;
    csrs = Imap.empty;
    fcsr = Sterm.Init "fcsr";
    resv = Sterm.Init "resv";
    mem = Sterm.Mem_init;
    stores = [];
    effects = [];
    sp_off = Some 0L;
    sp_min = 0L;
    n_ecalls = 0;
  }

let get_x st i =
  if i = 0 then Sterm.Const 0L
  else match Imap.find_opt i st.xregs with Some t -> t | None -> x_init i

let get_f st i =
  match Imap.find_opt i st.fregs with Some t -> t | None -> f_init i

let get_csr st i =
  match Imap.find_opt i st.csrs with Some t -> t | None -> csr_init i

let sp = Riscv.Reg.sp

(* Raising sp to entry-sp + [off] pops the stack below it: the psABI
   has no red zone, so what lies there is dead (an interrupt may
   clobber it) and no later access can observe it.  Stores wholly below
   the new sp leave the journal and the load-visible chain — the frames
   a snippet pushes for a syscall or a spill are gone once it returns,
   so they neither count as observations nor shadow later loads. *)
let pop_below st off =
  let dead width addr =
    match Sterm.split_addr addr with
    | Some b, o when Sterm.equal b (x_init sp) ->
        Int64.compare (Int64.add o (Int64.of_int (width / 8))) off <= 0
    | _ -> false
  in
  {
    st with
    mem = Sterm.filter_mem dead st.mem;
    stores = List.filter (fun s -> not (dead s.st_width s.st_addr)) st.stores;
  }

let set_x st i v =
  if i = 0 then st
  else
    let st = { st with xregs = Imap.add i v st.xregs } in
    if i <> sp then st
    else
      (* track the stack extent so scratch spilled below every original
         sp position can be excused by the checker *)
      match Sterm.split_addr v with
      | Some b, off when Sterm.equal b (x_init sp) ->
          let st =
            match st.sp_off with
            | Some old when Int64.compare off old > 0 -> pop_below st off
            | _ -> st
          in
          {
            st with
            sp_off = Some off;
            sp_min = (if Int64.compare off st.sp_min < 0 then off else st.sp_min);
          }
      | _ -> { st with sp_off = None }

let set_f st i v = { st with fregs = Imap.add i v st.fregs }
let set_csr st i v = { st with csrs = Imap.add i v st.csrs }

(* A store lands in the journal always; it joins the load-visible chain
   only when it is not provably private to the instrumentation (inside
   the patch data area for every value its address can take — a
   constant, or a bounded ring-slot address, see [Sterm.bounds]).  Keeping private writes out of the chain means both
   sides of an equivalence query resolve loads through identical chains
   even though only one side carries snippet bookkeeping writes. *)
let store ~private_ranges st width addr value =
  let journal = { st_width = width; st_addr = addr; st_value = value } in
  let in_private =
    List.exists (fun (lo, hi) -> Sterm.within ~lo ~hi addr (width / 8)) private_ranges
  in
  let mem =
    if in_private then st.mem
    else Sterm.Store { prev = st.mem; width; addr; value }
  in
  { st with mem; stores = journal :: st.stores }

let load st width addr = Sterm.read width st.mem addr

let effect st name args =
  { st with effects = { ef_name = name; ef_args = args } :: st.effects }

(* Journal accessors in program order. *)
let store_journal st = List.rev st.stores
let effect_journal st = List.rev st.effects
