(* Order statistics over float samples. *)

let sorted a =
  let a = Array.of_list a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]; [nan] on no samples. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
