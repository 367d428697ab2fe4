(* CodeGenAPI differential: lowered snippets vs a reference evaluator.

   Seeded random snippets (a pure function of (seed, index), like the
   instruction fuzzer) are lowered with [Codegen.generate] into exactly
   [Snippet.regs_needed] scratch registers, run under rvsim from a
   random register file and data area, and the data area they leave
   behind is compared with what an OCaml evaluator of the snippet AST
   computes.  The mutatee registers the snippet only reads must come
   out unchanged.

   The generator leans on the places instruction selection can go
   wrong: constants at the 12-bit immediate boundaries (2047, 2048,
   -2048, -2049), masks 0x3ff/0x7ff/0xfff (andi sign-extends its
   immediate, so [x land 0xfff] must not become one), shifts by 0, 5,
   63 and 64, [Reg]/[Param] operands read in place, nested [Let]s, and
   loads/stores at base + offset with offsets inside and outside the
   foldable range. *)

open Codegen_api

let code_base = 0x10000L
let data_base = 0x40000L
let data_size = 8192

(* A pointer local's value, and the span of offsets used from it; the
   top of the data area holds the While loop counters, which nothing
   else writes. *)
let ptr_value = Int64.add data_base 4096L
let counter_slot depth = Int64.add data_base (Int64.of_int (data_size - (8 * (depth + 1))))

let readable = List.init 8 (fun k -> Riscv.Reg.a0 + k) @ [ 9 ] @ List.init 7 (fun k -> 18 + k)
let scratch_pool = [ 5; 6; 7; 28; 29; 30; 31; 25; 26; 27 ] (* t0-t6, s9-s11 *)

let boundary =
  [| 0L; 1L; -1L; 5L; 63L; 64L; 2047L; 2048L; -2048L; -2049L; 0x3ffL; 0x7ffL; 0xfffL;
     4095L; 0x7FFFF800L; 0x80000000L; -0x80000000L; Int64.max_int; Int64.min_int |]

let binops =
  Snippet.[| Plus; Minus; Times; Divide; Mod; BAnd; BOr; BXor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge |]

let compares = Snippet.[| Eq; Ne; Lt; Le; Gt; Ge |]
let widths = [| 1; 2; 4; 8 |]

(* --- generator -------------------------------------------------------------- *)

type env = { values : string list; pointers : string list; loops : int; fresh : int ref }

let const g = if Prng.chance g 75 then Prng.choose g boundary else Prng.i64 g

let var g =
  let w = Prng.choose g widths in
  {
    Snippet.v_name = "v";
    v_addr = Int64.add data_base (Int64.of_int (8 * Prng.int g 64));
    v_size = w;
  }

let rec expr g env d : Snippet.expr =
  if d = 0 || Prng.chance g 25 then leaf g env
  else
    match Prng.int g 6 with
    | 0 | 1 | 2 ->
        let op = Prng.choose g binops in
        let b =
          if op = Snippet.BAnd && Prng.chance g 50 then
            Snippet.Const (Prng.choose g [| 0x3ffL; 0x7ffL; 0xfffL; 0x800L; -2048L |])
          else if Prng.chance g 50 then Snippet.Const (const g)
          else expr g env (d - 1)
        in
        (* a constant on the left exercises commutation onto immediates *)
        if Prng.chance g 15 then Snippet.Bin (op, b, expr g env (d - 1))
        else Snippet.Bin (op, expr g env (d - 1), b)
    | 3 | 4 ->
        let w = Prng.choose g widths in
        Snippet.Load (w, address g env w (d - 1))
    | _ -> Snippet.Not (expr g env (d - 1))

and leaf g env : Snippet.expr =
  match Prng.int g 5 with
  | 0 -> Snippet.Const (const g)
  | 1 -> Snippet.Reg (Prng.one_of g readable)
  | 2 -> Snippet.Param (Prng.int g 8)
  | 3 when env.values <> [] || env.pointers <> [] ->
      Snippet.Local (Prng.one_of g (env.values @ env.pointers))
  | _ -> Snippet.Var (var g)

(* A [w]-aligned address inside the data area (below the counters). *)
and address g env w d : Snippet.expr =
  match Prng.int g 3 with
  | 0 when env.pointers <> [] ->
      let slots = (4096 - 64) / w in
      let k = Int64.of_int (w * Prng.range g (-4096 / w) (slots - 1)) in
      let k = if Prng.chance g 30 then Prng.choose g [| -2048L; 2040L; 2048L; -2056L |] else k in
      Snippet.Bin (Snippet.Plus, Snippet.Local (Prng.one_of g env.pointers), Snippet.Const k)
  | 1 ->
      (* masked index: data_base + ((e & 0x3f) << 3) *)
      Snippet.Bin
        ( Snippet.Plus,
          Snippet.Const data_base,
          Snippet.Bin
            ( Snippet.Shl,
              Snippet.Bin (Snippet.BAnd, expr g env d, Snippet.Const 0x3fL),
              Snippet.Const 3L ) )
  | _ -> Snippet.Const (Int64.add data_base (Int64.of_int (8 * Prng.int g 64)))

let cond g env d =
  if Prng.chance g 70 then
    let b = if Prng.chance g 50 then Snippet.Const (const g) else expr g env d in
    Snippet.Bin (Prng.choose g compares, expr g env d, b)
  else expr g env d

let rec stmts g env d =
  List.init (Prng.range g 1 3) (fun _ -> stmt g env d)

and stmt g env d : Snippet.stmt =
  let fresh p =
    incr env.fresh;
    Printf.sprintf "%s%d" p !(env.fresh)
  in
  match if d = 0 then Prng.int g 2 else Prng.int g 7 with
  | 0 -> Snippet.Set (var g, expr g env 2)
  | 1 ->
      let w = Prng.choose g widths in
      Snippet.Store (w, address g env w 1, expr g env 2)
  | 2 ->
      let l = fresh "v" in
      Snippet.Let (l, expr g env 2, stmts g { env with values = l :: env.values } (d - 1))
  | 3 ->
      let l = fresh "p" in
      Snippet.Let
        (l, Snippet.Const ptr_value, stmts g { env with pointers = l :: env.pointers } (d - 1))
  | 4 | 5 ->
      Snippet.If
        ( cond g env 2,
          stmts g env (d - 1),
          if Prng.chance g 50 then [] else stmts g env (d - 1) )
  | _ when env.loops < 2 ->
      (* a bounded loop: counter slot := 0; while counter < n *)
      let c = { Snippet.v_name = "i"; v_addr = counter_slot env.loops; v_size = 8 } in
      let body = stmts g { env with loops = env.loops + 1 } (d - 1) in
      Snippet.If
        ( Snippet.Const 1L,
          [
            Snippet.Set (c, Snippet.Const 0L);
            Snippet.While
              ( Snippet.Bin (Snippet.Lt, Snippet.Var c, Snippet.Const (Int64.of_int (Prng.range g 1 3))),
                body @ [ Snippet.Set (c, Snippet.Bin (Snippet.Plus, Snippet.Var c, Snippet.Const 1L)) ] );
          ],
          [] )
  | _ -> Snippet.Set (var g, expr g env 1)

let generate g =
  stmts g { values = []; pointers = []; loops = 0; fresh = ref 0 } 3

(* --- reference evaluator ---------------------------------------------------- *)

exception Out_of_area of int64

let offset a w =
  let off = Int64.sub a data_base in
  if Int64.compare off 0L < 0 || Int64.compare (Int64.add off (Int64.of_int w)) (Int64.of_int data_size) > 0
  then raise (Out_of_area a);
  Int64.to_int off

let read mem w a =
  let off = offset a w in
  let v = ref 0L in
  for k = w - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get mem (off + k))))
  done;
  !v

let write mem w a v =
  let off = offset a w in
  for k = 0 to w - 1 do
    Bytes.set mem (off + k)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
  done

let bool b = if b then 1L else 0L

(* RV64 semantics of the snippet operators. *)
let binop op a b =
  let sh = Int64.to_int (Int64.logand b 63L) in
  match op with
  | Snippet.Plus -> Int64.add a b
  | Snippet.Minus -> Int64.sub a b
  | Snippet.Times -> Int64.mul a b
  | Snippet.Divide ->
      if b = 0L then -1L else if a = Int64.min_int && b = -1L then a else Int64.div a b
  | Snippet.Mod ->
      if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
  | Snippet.BAnd -> Int64.logand a b
  | Snippet.BOr -> Int64.logor a b
  | Snippet.BXor -> Int64.logxor a b
  | Snippet.Shl -> Int64.shift_left a sh
  | Snippet.Shr -> Int64.shift_right_logical a sh
  | Snippet.Eq -> bool (a = b)
  | Snippet.Ne -> bool (a <> b)
  | Snippet.Lt -> bool (Int64.compare a b < 0)
  | Snippet.Le -> bool (Int64.compare a b <= 0)
  | Snippet.Gt -> bool (Int64.compare a b > 0)
  | Snippet.Ge -> bool (Int64.compare a b >= 0)

let rec eval regs mem env (e : Snippet.expr) =
  let ev = eval regs mem env in
  match e with
  | Snippet.Const c -> c
  | Snippet.Var v -> read mem v.Snippet.v_size v.Snippet.v_addr
  | Snippet.Reg r -> regs.(r)
  | Snippet.Param n -> regs.(Riscv.Reg.a0 + n)
  | Snippet.Local l -> List.assoc l env
  | Snippet.Load (w, a) -> read mem w (ev a)
  | Snippet.Not e -> bool (ev e = 0L)
  | Snippet.Bin (op, a, b) -> binop op (ev a) (ev b)
  | Snippet.Cycle -> invalid_arg "Codegendiff: Cycle is not deterministic"

let rec exec regs mem env (s : Snippet.stmt) =
  match s with
  | Snippet.Set (v, e) -> write mem v.Snippet.v_size v.Snippet.v_addr (eval regs mem env e)
  | Snippet.Store (w, a, v) ->
      (* the lowering may evaluate either side first; both are pure *)
      let a = eval regs mem env a and v = eval regs mem env v in
      write mem w a v
  | Snippet.If (c, t, e) ->
      List.iter (exec regs mem env) (if eval regs mem env c <> 0L then t else e)
  | Snippet.While (c, body) ->
      while eval regs mem env c <> 0L do
        List.iter (exec regs mem env) body
      done
  | Snippet.Let (l, e, body) ->
      let v = eval regs mem env e in
      List.iter (exec regs mem ((l, v) :: env)) body
  | Snippet.Nop -> ()
  | Snippet.Call _ | Snippet.Scall _ -> invalid_arg "Codegendiff: no calls"

(* --- one case ----------------------------------------------------------------- *)

type outcome = Agreed | Skipped of string | Diverged of string

let run_case ~seed ~index : outcome =
  let g = Prng.of_seed_index ~seed ~index in
  let snippet = generate g in
  let regs = Array.make 32 0L in
  List.iter (fun r -> regs.(r) <- (if Prng.chance g 30 then const g else Prng.i64 g)) readable;
  List.iter (fun r -> regs.(r) <- Prng.i64 g) scratch_pool;
  let mem0 = Bytes.init data_size (fun _ -> Char.chr (Prng.int g 256)) in
  let want = Bytes.copy mem0 in
  match List.iter (exec regs want []) snippet with
  | exception Out_of_area a -> Skipped (Printf.sprintf "access at 0x%Lx outside the data area" a)
  | () -> (
      let n = Snippet.regs_needed snippet in
      if n > List.length scratch_pool then Skipped (Printf.sprintf "needs %d scratch registers" n)
      else
        let scratch = List.filteri (fun k _ -> k < n) scratch_pool in
        match
          Codegen.generate
            (Codegen.create_ctx ~profile:Riscv.Ext.rv64gc ~scratch ())
            snippet
        with
        | exception Codegen.Codegen_error msg -> Diverged ("lowering failed: " ^ msg)
        | items -> (
            match
              Riscv.Asm.assemble ~base:code_base ~symbols:(fun _ -> None)
                (items @ [ Riscv.Asm.Insn Riscv.Build.ebreak ])
            with
            | exception e -> Diverged ("encoding failed: " ^ Printexc.to_string e)
            | asm ->
            let m = Rvsim.Machine.create () in
            Rvsim.Mem.write_bytes m.Rvsim.Machine.mem code_base asm.Riscv.Asm.code;
            ignore
              (Rvsim.Machine.add_code_region m ~base:code_base
                 ~size:(Bytes.length asm.Riscv.Asm.code));
            Rvsim.Mem.write_bytes m.Rvsim.Machine.mem data_base mem0;
            Array.iteri (fun r v -> if r > 0 then Rvsim.Machine.set_reg m r v) regs;
            m.Rvsim.Machine.pc <- code_base;
            let brk = Int64.add code_base (Int64.of_int (Bytes.length asm.Riscv.Asm.code - 4)) in
            match Rvsim.Machine.run ~max_steps:200_000 m with
            | Rvsim.Machine.Ebreak pc when pc = brk ->
                let got = Rvsim.Mem.read_bytes m.Rvsim.Machine.mem data_base data_size in
                let clobbered =
                  List.filter (fun r -> Rvsim.Machine.get_reg m r <> regs.(r)) readable
                in
                if not (Bytes.equal got want) then begin
                  let i = ref 0 in
                  while Bytes.get got !i = Bytes.get want !i do incr i done;
                  Diverged
                    (Printf.sprintf "data byte 0x%Lx: lowered %02x, reference %02x"
                       (Int64.add data_base (Int64.of_int !i))
                       (Char.code (Bytes.get got !i))
                       (Char.code (Bytes.get want !i)))
                end
                else if clobbered <> [] then
                  Diverged
                    (Printf.sprintf "read-only register %s clobbered"
                       (Riscv.Reg.name (List.hd clobbered)))
                else Agreed
            | stop -> Diverged (Format.asprintf "stopped with %a" Rvsim.Machine.pp_stop stop)))

type summary = { s_agreed : int; s_skipped : int; s_diverged : (int * string) list }

let sweep ~seed ~count : summary =
  let agreed = ref 0 and skipped = ref 0 and diverged = ref [] in
  for index = 0 to count - 1 do
    match run_case ~seed ~index with
    | Agreed -> incr agreed
    | Skipped _ -> incr skipped
    | Diverged msg -> diverged := (index, msg) :: !diverged
  done;
  { s_agreed = !agreed; s_skipped = !skipped; s_diverged = List.rev !diverged }

let pp_summary ~seed fmt (s : summary) =
  Format.fprintf fmt "codegen differential: %d agree, %d skipped, %d diverged@."
    s.s_agreed s.s_skipped (List.length s.s_diverged);
  List.iter
    (fun (index, msg) -> Format.fprintf fmt "  seed %Ld index %d: %s@." seed index msg)
    s.s_diverged
