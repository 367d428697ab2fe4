(* The one writer behind every BENCH_*.json: each report is a
   [Dyn_util.Jsonw] value, stamped with the host facts its wall-clock
   rows depend on (rows only compare across runs on the same kind of
   host). *)

module J = Dyn_util.Jsonw

let int x = J.Int (Int64.of_int x)

(* Round to [digits] decimals, so a report does not carry float noise. *)
let fixed digits x =
  let s = 10. ** float_of_int digits in
  Float.round (x *. s) /. s

let host =
  J.Obj
    [
      ("cores", int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
    ]

let write path fields =
  let oc = open_out path in
  output_string oc (J.to_string_pretty (J.Obj (("host", host) :: fields)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "   wrote %s\n" path
