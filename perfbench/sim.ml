(* Running images under rvsim, and the independent references the
   benchmark checks instrumented runs against: counts taken with an
   rvsim trace hook on the uninstrumented binary under the
   per-instruction interpreter, which shares no code with the rewriter
   or the snippet code it emits. *)

type run = {
  stop : Rvsim.Machine.stop;
  stdout : string;
  cycles : int64;
  instret : int64;
  machine : Rvsim.Machine.t;
}

let max_steps = 200_000_000

let exec (p : Rvsim.Loader.process) : run =
  let stop, stdout = Rvsim.Loader.run ~max_steps p in
  let m = p.Rvsim.Loader.machine in
  { stop; stdout; cycles = m.Rvsim.Machine.cycles; instret = m.Rvsim.Machine.instret; machine = m }

let read_var (r : run) (v : Codegen_api.Snippet.var) =
  Rvsim.Mem.read64 r.machine.Rvsim.Machine.mem v.Codegen_api.Snippet.v_addr

(* Run [img] on the interpreter, calling [hook] before every executed
   instruction. *)
let hooked (img : Elfkit.Types.image) (hook : int64 -> Riscv.Insn.t -> unit) : run =
  let p = Rvsim.Loader.load ~engine:Rvsim.Machine.Eng_interp img in
  p.Rvsim.Loader.machine.Rvsim.Machine.trace <- Some hook;
  exec p


(* Bytes of trampoline code a rewrite added. *)
let tramp_bytes (img : Elfkit.Types.image) =
  match Elfkit.Types.find_section img ".dyninst_text" with
  | Some s -> Bytes.length s.Elfkit.Types.s_data
  | None -> 0
