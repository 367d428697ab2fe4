(* The in-process trace ring buffer and its emitting snippets.

   Layout (all in the patch data area, so both static rewriting and
   dynamic instrumentation get it for free):

     widx     u64   records written, monotonically increasing
     flushed  u64   records already drained by the host-side sink
     buf      capacity * Record.size bytes, capacity a power of two

   A record is written at slot [widx land (capacity-1)], then widx is
   incremented, then the emitting snippet checks [widx - flushed >=
   capacity] (on the pre-increment widx, as [>= capacity - 1]) and, if
   the ring just filled, raises the flush syscall so
   the sink drains [flushed, widx) before the next record could
   overwrite an undrained slot.  Both counters only ever grow, so the
   sink can also drain a partial tail at exit. *)

open Codegen_api

type t = {
  widx : Snippet.var;
  flushed : Snippet.var;
  buf_base : int64;
  capacity : int; (* in records; a power of two *)
}

(* The flush syscall number: well outside the Linux range so a mutatee
   can never raise it by accident. *)
let flush_syscall = 0x7452

(* log2 Record.size; slot offset = (widx land mask) lsl this *)
let log2_record_size = 5

let create ?(name = "trace") (rw : Patch_api.Rewriter.t) ~capacity : t =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Ring.create: capacity must be a positive power of two";
  if capacity * Record.size > 0x8000 then
    invalid_arg "Ring.create: ring larger than half the patch data area";
  let widx = Patch_api.Rewriter.allocate_var rw (name ^ "_widx") 8 in
  let flushed = Patch_api.Rewriter.allocate_var rw (name ^ "_flushed") 8 in
  let buf_base =
    Patch_api.Rewriter.allocate_raw rw (name ^ "_buf")
      ~size:(capacity * Record.size) ~align:Record.size
  in
  { widx; flushed; buf_base; capacity }

(* The base the record snippet addresses the ring from: every field it
   touches (widx, flushed, the four words of slot 0) within a 12-bit
   offset, and a single lui when a page boundary is that close. *)
let base (t : t) =
  let lo = t.widx.Snippet.v_addr in
  let hi = Int64.add t.buf_base (Int64.of_int (Record.size - 1)) in
  let b, _ = Snippet.near_base lo in
  if Snippet.fits_imm12 (Int64.sub lo b) && Snippet.fits_imm12 (Int64.sub hi b)
  then b
  else lo

(* The snippet statements appending one record.  [addr] and [value] are
   arbitrary snippet expressions, so trace points can capture run-time
   state (e.g. an effective address from a base register).

   The ring base, widx and the slot pointer are each computed once and
   held in scratch registers (four in all); the no-flush path is
   lui; ld; andi; slli; add; 4 x (value; sd); addi; sd; ld; sub; li;
   blt.  The flush test [widx - flushed >= capacity - 1] reads widx
   before its increment. *)
let emit (t : t) ~(kind : Record.kind) ~(addr : Snippet.expr)
    ~(value : Snippet.expr) : Snippet.stmt list =
  let open Snippet in
  let b = base t in
  let at l off = Bin (Plus, Local l, Const off) in
  let ring a = at "ring" (Int64.sub a b) in
  let field k = at "slot" (Int64.add (Int64.sub t.buf_base b) (Int64.of_int k)) in
  let mask = Int64.of_int (t.capacity - 1) in
  [
    Let
      ( "ring",
        Const b,
        [
          Let
            ( "widx",
              Load (8, ring t.widx.v_addr),
              [
                Let
                  ( "slot",
                    Bin
                      ( Plus,
                        Bin
                          ( Shl,
                            Bin (BAnd, Local "widx", Const mask),
                            Const (Int64.of_int log2_record_size) ),
                        Local "ring" ),
                    [
                      Store (8, field 0, Const (Record.code kind));
                      Store (8, field 8, addr);
                      Store (8, field 16, value);
                      Store (8, field 24, Cycle);
                    ] );
                Store (8, ring t.widx.v_addr, Bin (Plus, Local "widx", Const 1L));
                If
                  ( Bin
                      ( Ge,
                        Bin (Minus, Local "widx", Load (8, ring t.flushed.v_addr)),
                        Const (Int64.of_int (t.capacity - 1)) ),
                    [ Scall (flush_syscall, [ Const t.buf_base ]) ],
                    [] );
              ] );
        ] );
  ]

(* A user marker: an application-defined event with an id and payload. *)
let marker (t : t) ~(id : int64) ?(payload = Snippet.Const 0L) () :
    Snippet.stmt list =
  emit t ~kind:Record.Marker ~addr:(Snippet.Const id) ~value:payload
