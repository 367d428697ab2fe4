(* Symbolic terms over an initial-state alphabet.

   A term denotes a 64-bit machine word as a function of the machine
   state at block entry: [Init "x10"] is whatever a0 held when the block
   was entered, [Sel] reads a symbolic memory, [App] is an uninterpreted
   function (CSR reads, FP ops whose arguments stayed symbolic, syscall
   results).  Equivalence checking compares terms structurally after the
   smart constructors below have normalized them, so two executions that
   compute the same value along syntactically different routes (sp-16+16,
   beq vs. the relaxed inverted bne) still meet in one normal form. *)

open Sailsem

type mem = Mem_init | Store of { prev : mem; width : int; addr : t; value : t }

and t =
  | Const of int64
  | Init of string (* entry-state register / csr / fcsr / reservation *)
  | Bin of Ir.binop * t * t
  | Un of Ir.unop * t
  | Sext of t * int
  | Zext of t * int
  | Sel of int * mem * t (* width-bits read of a symbolic memory *)
  | App of string * t list (* uninterpreted *)

let equal (a : t) (b : t) = a = b

(* --- normalizing constructors ------------------------------------------- *)

let rec binop op a b =
  match (op, a, b) with
  | _, Const x, Const y -> (
      (* constant folding through the concrete evaluator keeps the
         symbolic and executable semantics in lockstep by construction *)
      try Const (Eval.eval_binop op x y) with Eval.Eval_error _ -> Bin (op, a, b))
  (* additive normal form: constants fold to the right *)
  | Ir.Add, Const 0L, x | Ir.Add, x, Const 0L -> x
  | Ir.Add, Const c, x -> binop Ir.Add x (Const c)
  | Ir.Add, Bin (Ir.Add, x, Const c1), Const c2 ->
      binop Ir.Add x (Const (Int64.add c1 c2))
  | Ir.Sub, x, Const c -> binop Ir.Add x (Const (Int64.neg c))
  | Ir.Sub, x, y when equal x y -> Const 0L
  | Ir.Xor, x, y when equal x y -> Const 0L
  | (Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.LshR | Ir.AshR), x, Const 0L -> (
      match op with Ir.And -> Const 0L | _ -> x)
  | Ir.Eq, x, y when equal x y -> Const 1L
  (* comparison canonical form: everything in terms of Eq / LtS / LtU /
     LeS so that branch-relaxation inversions (beq <-> bne+j) meet *)
  | Ir.Ne, x, y -> unop Ir.BoolNot (binop Ir.Eq x y)
  | Ir.GtS, x, y -> binop Ir.LtS y x
  | Ir.GeS, x, y -> unop Ir.BoolNot (binop Ir.LtS x y)
  | Ir.GeU, x, y -> unop Ir.BoolNot (binop Ir.LtU x y)
  | _ -> Bin (op, a, b)

and unop op a =
  match (op, a) with
  | _, Const x -> Const (Eval.eval_unop op x)
  | Ir.BoolNot, Un (Ir.BoolNot, Un (Ir.BoolNot, x)) -> Un (Ir.BoolNot, x)
  | _ -> Un (op, a)

let sext a n =
  if n >= 64 then a
  else
    match a with
    | Const v -> Const (Dyn_util.Bits.sign_extend64 v n)
    | Sext (_, m) when m <= n -> a
    | _ -> Sext (a, n)

let zext a n =
  if n >= 64 then a
  else
    match a with
    | Const v -> Const (Dyn_util.Bits.extract64 v 0 n)
    | Zext (_, m) when m <= n -> a
    | _ -> Zext (a, n)

(* --- address arithmetic -------------------------------------------------- *)

(* Decompose an address into (symbolic base, constant offset); a purely
   concrete address has base [None]. *)
let split_addr = function
  | Const c -> (None, c)
  | Bin (Ir.Add, b, Const c) -> (Some b, c)
  | t -> (Some t, 0L)

(* The values a term can take, as an inclusive non-negative interval,
   when its shape bounds it: a masked value [x & m] lies in [0, m], a
   left shift or an added constant moves the interval, a sum adds two.
   This is what places a ring-slot address [c + ((widx & m) << k)] in
   [c, c + (m << k)] whatever widx holds. *)
let rec bounds = function
  | Const c when Int64.compare c 0L >= 0 -> Some (c, c)
  | Bin (Ir.And, x, Const m) when Int64.compare m 0L >= 0 -> (
      match bounds x with
      | Some (lo, hi) when Int64.compare hi m <= 0 -> Some (lo, hi)
      | _ -> Some (0L, m))
  | Bin (Ir.Shl, x, Const k) when Int64.compare k 0L >= 0 && Int64.compare k 62L <= 0 -> (
      let k = Int64.to_int k in
      match bounds x with
      | Some (lo, hi) when Int64.compare hi (Int64.shift_right Int64.max_int k) <= 0 ->
          Some (Int64.shift_left lo k, Int64.shift_left hi k)
      | _ -> None)
  | Bin (Ir.Add, x, y) -> (
      match (bounds x, bounds y) with
      | Some (l1, h1), Some (l2, h2) ->
          let h = Int64.add h1 h2 in
          if Int64.compare h h1 < 0 then None else Some (Int64.add l1 l2, h)
      | _ -> None)
  | Zext (_, n) when n < 63 -> Some (0L, Int64.pred (Int64.shift_left 1L n))
  | _ -> None

(* Does a [bytes]-wide access at [addr] provably stay inside [lo, hi)? *)
let within ~lo ~hi addr bytes =
  match bounds addr with
  | Some (a, b) ->
      Int64.compare a lo >= 0
      && Int64.compare (Int64.add b (Int64.of_int bytes)) hi <= 0
  | None -> false

(* Two accesses that provably do not overlap: same symbolic base with
   non-overlapping offset windows, or both absolute.  Anything else —
   in particular two distinct symbolic bases — is treated as a possible
   alias. *)
let disjoint (a1, s1) (a2, s2) =
  let b1, o1 = split_addr a1 and b2, o2 = split_addr a2 in
  let same_base =
    match (b1, b2) with
    | None, None -> true
    | Some x, Some y -> equal x y
    | _ -> false
  in
  same_base
  && (Int64.compare (Int64.add o1 (Int64.of_int s1)) o2 <= 0
     || Int64.compare (Int64.add o2 (Int64.of_int s2)) o1 <= 0)

(* Read [width] bits at [addr]: resolve through the store chain as far
   as aliasing is decidable.  A store chain only ever contains
   program-visible stores (the executor keeps snippet-private writes out
   of it), so both sides of an equivalence query walk identical chains. *)
let rec read width m addr =
  match m with
  | Mem_init -> Sel (width, Mem_init, addr)
  | Store { prev; width = w; addr = a; value } ->
      if w = width && equal a addr then
        if width >= 64 then value else zext value width
      else if disjoint (a, w / 8) (addr, width / 8) then read width prev addr
      else Sel (width, m, addr)

(* The chain without the stores [drop] selects. *)
let rec filter_mem drop = function
  | Mem_init -> Mem_init
  | Store { prev; width; addr; value } ->
      let prev = filter_mem drop prev in
      if drop width addr then prev else Store { prev; width; addr; value }

(* --- rendering ----------------------------------------------------------- *)

let rec pp fmt = function
  | Const v ->
      if Int64.compare v 4096L > 0 then Format.fprintf fmt "0x%Lx" v
      else Format.fprintf fmt "%Ld" v
  | Init s -> Format.pp_print_string fmt s
  | Bin (op, a, b) ->
      Format.fprintf fmt "(%s %a %a)" (Ir.binop_name op) pp a pp b
  | Un (op, a) -> Format.fprintf fmt "(%s %a)" (Ir.unop_name op) pp a
  | Sext (a, n) -> Format.fprintf fmt "(sx%d %a)" n pp a
  | Zext (a, n) -> Format.fprintf fmt "(zx%d %a)" n pp a
  | Sel (w, m, a) -> Format.fprintf fmt "(mem%d%a %a)" w pp_mem m pp a
  | App (f, args) ->
      Format.fprintf fmt "(%s%a)" f
        (fun fmt -> List.iter (Format.fprintf fmt " %a" pp))
        args

and pp_mem fmt = function
  | Mem_init -> ()
  | Store { prev; width; addr; value } ->
      Format.fprintf fmt "[%a<-%d:%a]%a" pp addr width pp value pp_mem prev

let to_string t = Format.asprintf "%a" pp t
