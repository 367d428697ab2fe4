(* Shared JSON representation: one value type, one writer, one parser,
   used by every layer that speaks JSON — lint diagnostics, patch
   manifests, the sail pipeline IR and the rvserved wire protocol.
   Previously the sail pipeline, Diag and Manifest each carried their own
   rendering; this module is the extraction.

   Two writers: [to_string] is a compact Buffer-based encoder (no
   whitespace) for wire traffic and cache payloads, where byte-stable
   output matters — the artifact cache's warm/cold differential compares
   rendered payloads byte for byte.  [pp] is the human-facing
   Format-based pretty printer.  The parser is a recursive-descent reader
   sufficient for round-tripping our own output.  Nothing in the
   toolkit emits floats on the wire (fixed-point fields are documented
   at their emission sites); [Float] is for the benchmark reports. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float  (** finite; written in the shortest form that reads back *)
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- compact writer ------------------------------------------------------- *)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (Int64.to_string i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k x ->
          if k > 0 then Buffer.add_char buf ',';
          write_to buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_char buf ',';
          escape_to buf key;
          Buffer.add_char buf ':';
          write_to buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write_to buf t;
  Buffer.contents buf

(* --- pretty printer -------------------------------------------------------- *)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.fprintf fmt "%Ld" i
  | Float f -> Format.pp_print_string fmt (float_repr f)
  | String s -> pp_string fmt s
  | List xs ->
      Format.fprintf fmt "@[<hov 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
        xs
  | Obj kvs ->
      let pp_kv fmt (k, v) = Format.fprintf fmt "@[<hv 2>%a:@ %a@]" pp_string k pp v in
      Format.fprintf fmt "@[<hv 1>{%a}@]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp_kv)
        kvs

and pp_string fmt s =
  let buf = Buffer.create (String.length s + 2) in
  escape_to buf s;
  Format.pp_print_string fmt (Buffer.contents buf)

let to_string_pretty t = Format.asprintf "%a" pp t

(* --- parser -------------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let fail_at st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail_at st (Printf.sprintf "expected %c" c)

let parse_string_lit st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail_at st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail_at st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex) land 0xFF));
            go ()
        | Some c -> advance st; Buffer.add_char buf c; go ()
        | None -> fail_at st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin advance st; Obj [] end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string_lit st in
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; members ((k, v) :: acc)
          | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail_at st "expected , or }"
        in
        members []
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin advance st; List [] end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; elements (v :: acc)
          | Some ']' -> advance st; List (List.rev (v :: acc))
          | _ -> fail_at st "expected , or ]"
        in
        elements []
      end
  | Some '"' -> String (parse_string_lit st)
  | Some ('-' | '0' .. '9') ->
      let start = st.pos in
      if peek st = Some '-' then advance st;
      let rec digits () =
        match peek st with
        | Some '0' .. '9' -> advance st; digits ()
        | _ -> ()
      in
      digits ();
      let frac = peek st = Some '.' in
      if frac then begin advance st; digits () end;
      let exp = peek st = Some 'e' || peek st = Some 'E' in
      if exp then begin
        advance st;
        if peek st = Some '-' || peek st = Some '+' then advance st;
        digits ()
      end;
      let lit = String.sub st.src start (st.pos - start) in
      if frac || exp then Float (float_of_string lit) else Int (Int64.of_string lit)
  | Some 't' ->
      st.pos <- st.pos + 4;
      Bool true
  | Some 'f' ->
      st.pos <- st.pos + 5;
      Bool false
  | Some 'n' ->
      st.pos <- st.pos + 4;
      Null
  | _ -> fail_at st "unexpected character"

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail_at st "trailing garbage";
  v

(* --- accessors ------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> ( try List.assoc k kvs with Not_found -> Null)
  | _ -> Null

let to_list = function List l -> l | _ -> raise (Parse_error "expected list")
let to_int64 = function Int i -> i | _ -> raise (Parse_error "expected int")
let to_str = function String s -> s | _ -> raise (Parse_error "expected string")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected bool")
let to_int = function
  | Int i -> Int64.to_int i
  | _ -> raise (Parse_error "expected int")
