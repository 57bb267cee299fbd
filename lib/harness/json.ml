(* A small recursive-descent JSON parser.  The harness emits JSON in a
   few places (stats, bench summaries, gauge snapshots, Chrome traces);
   this is the matching reader.  Only the tests use it, to check that
   what we emit actually parses — with escapes, not just by eye. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %C, found %C" c c')
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let expect_lit st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = lit then (
    st.pos <- st.pos + n;
    v)
  else error st (Printf.sprintf "expected %s" lit)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let s = String.sub st.src st.pos 4 in
  let code =
    try int_of_string ("0x" ^ s) with _ -> error st (Printf.sprintf "bad \\u escape %S" s)
  in
  st.pos <- st.pos + 4;
  code

(* Encode a Unicode scalar value as UTF-8. *)
let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
  else if code < 0x10000 then (
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let code = parse_hex4 st in
                (* Surrogate pair: a high surrogate must be followed by
                   \uDC00-\uDFFF; combine into one scalar value. *)
                let code =
                  if code >= 0xD800 && code <= 0xDBFF then (
                    if
                      st.pos + 2 <= String.length st.src
                      && st.src.[st.pos] = '\\'
                      && st.src.[st.pos + 1] = 'u'
                    then (
                      st.pos <- st.pos + 2;
                      let lo = parse_hex4 st in
                      if lo < 0xDC00 || lo > 0xDFFF then error st "unpaired high surrogate";
                      0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00))
                    else error st "unpaired high surrogate")
                  else if code >= 0xDC00 && code <= 0xDFFF then error st "unpaired low surrogate"
                  else code
                in
                utf8_add buf code
            | c -> error st (Printf.sprintf "bad escape \\%c" c));
            go ()
        )
    | Some c when Char.code c < 0x20 -> error st "unescaped control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
          advance st;
          go ()
      | _ -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (fun c -> c >= '0' && c <= '9');
  (match peek st with
  | Some '.' ->
      advance st;
      consume_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> error st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> expect_lit st "true" (Bool true)
  | Some 'f' -> expect_lit st "false" (Bool false)
  | Some 'n' -> expect_lit st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Obj []
  | _ ->
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            members ((key, v) :: acc)
        | Some '}' ->
            advance st;
            Obj (List.rev ((key, v) :: acc))
        | _ -> error st "expected ',' or '}'"
      in
      members []

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
      advance st;
      List []
  | _ ->
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            elements (v :: acc)
        | Some ']' ->
            advance st;
            List (List.rev (v :: acc))
        | _ -> error st "expected ',' or ']'"
      in
      elements []

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s = match parse s with Ok v -> v | Error msg -> failwith ("Json.parse: " ^ msg)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let member_exn key j =
  match member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Json.member_exn: no member %S" key)

let to_float = function
  | Num f -> f
  | j -> failwith (Printf.sprintf "Json.to_float: not a number (%s)" (match j with
      | Null -> "null" | Bool _ -> "bool" | Str _ -> "string" | List _ -> "list"
      | Obj _ -> "object" | Num _ -> assert false))

let to_int j = int_of_float (to_float j)
let to_string = function Str s -> s | _ -> failwith "Json.to_string: not a string"
let to_list = function List l -> l | _ -> failwith "Json.to_list: not a list"
let to_obj = function Obj l -> l | _ -> failwith "Json.to_obj: not an object"
