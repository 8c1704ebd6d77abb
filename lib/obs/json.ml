type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let hex = "0123456789abcdef"

(* The first byte of [s] at or after [i] that a JSON string must escape,
   or [String.length s]. *)
let rec first_special s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> first_special s (i + 1)

(* Nearly every string has nothing to escape and is appended whole. *)
let add_escaped buf s =
  let k = first_special s 0 in
  Buffer.add_substring buf s 0 k;
  for i = k to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\000' .. '\031' as c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex.[Char.code c lsr 4];
      Buffer.add_char buf hex.[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done

(* Decimal digits of [i >= 0], straight into the buffer. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* Shortest representation that parses back to the same float. *)
let float_repr f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* An integral float below 1e15 is an exact [int]: print it as one with
   a ".0" suffix, which is what [%.1f] would print, sign of zero
   included. *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f && f = 0.0 then Buffer.add_char buf '-';
    add_int buf (Float.to_int f);
    Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf (float_repr f)

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | Str s -> add_quoted buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr (v :: rest) ->
    Buffer.add_char buf '[';
    write buf v;
    write_items buf rest;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj ((k, v) :: rest) ->
    Buffer.add_char buf '{';
    write_field buf k v;
    write_fields buf rest;
    Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | v :: rest ->
    Buffer.add_char buf ',';
    write buf v;
    write_items buf rest

and write_field buf k v =
  add_quoted buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ',';
    write_field buf k v;
    write_fields buf rest

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Bad of string

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad (Printf.sprintf "%s at offset %d" m !pos)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let len = String.length word in
    let rec same i =
      i = len
      || String.unsafe_get s (!pos + i) = String.unsafe_get word i
         && same (i + 1)
    in
    if !pos + len <= n && same 0 then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "bad \\u escape";
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match String.unsafe_get s !pos with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d;
      incr pos
    done;
    !code
  in
  (* The rest of a string holding escapes, from [!pos], into [b]. *)
  let rec escaped b =
    if !pos >= n then fail "unterminated string"
    else
      match String.unsafe_get s !pos with
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        if !pos >= n then fail "bad escape";
        (match String.unsafe_get s !pos with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c; incr pos
        | 'n' -> Buffer.add_char b '\n'; incr pos
        | 't' -> Buffer.add_char b '\t'; incr pos
        | 'r' -> Buffer.add_char b '\r'; incr pos
        | 'b' -> Buffer.add_char b '\b'; incr pos
        | 'f' -> Buffer.add_char b '\012'; incr pos
        | 'u' ->
          incr pos;
          let code = hex4 () in
          (* UTF-8 encode the code point (surrogates kept verbatim:
             escape fidelity is not needed for any ledger field). *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail "bad escape");
        escaped b
      | c ->
        Buffer.add_char b c;
        incr pos;
        escaped b
  in
  (* An escape-free string is one [String.sub] of the input. *)
  let string_body () =
    expect '"';
    let start = !pos in
    let i = ref start in
    while
      !i < n
      && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
    do
      incr i
    done;
    if !i < n && String.unsafe_get s !i = '"' then begin
      pos := !i + 1;
      String.sub s start (!i - start)
    end
    else begin
      let b = Buffer.create (!i - start + 16) in
      Buffer.add_substring b s start (!i - start);
      pos := !i;
      escaped b
    end
  in
  (* A numeric literal is the longest run of number characters.  A run
     of at most 18 digits, after an optional minus, cannot overflow and
     is read in place; any other run goes through the stdlib
     conversions. *)
  let number () =
    let start = !pos in
    let first = if at '-' then start + 1 else start in
    let i = ref first and acc = ref 0 in
    while
      !i < n && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + (Char.code (String.unsafe_get s !i) - Char.code '0');
      incr i
    done;
    let digits = !i - first in
    if
      digits > 0 && digits <= 18
      && not (!i < n && is_number_char (String.unsafe_get s !i))
    then begin
      pos := !i;
      Int (if first > start then - !acc else !acc)
    end
    else begin
      let fractional = ref false in
      while
        !pos < n
        &&
        match String.unsafe_get s !pos with
        | '0' .. '9' | '-' | '+' -> true
        | '.' | 'e' | 'E' ->
          fractional := true;
          true
        | _ -> false
      do
        incr pos
      done;
      let lit = String.sub s start (!pos - start) in
      if not !fractional then
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
      else
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number"
    end
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match String.unsafe_get s !pos with
      | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else members []
      | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          Arr []
        end
        else elements []
      | '"' -> Str (string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
  and members acc =
    skip_ws ();
    let key = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    if at ',' then begin
      incr pos;
      members ((key, v) :: acc)
    end
    else if at '}' then begin
      incr pos;
      Obj (List.rev ((key, v) :: acc))
    end
    else fail "expected , or }"
  and elements acc =
    let v = value () in
    skip_ws ();
    if at ',' then begin
      incr pos;
      elements (v :: acc)
    end
    else if at ']' then begin
      incr pos;
      Arr (List.rev (v :: acc))
    end
    else fail "expected , or ]"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* --- validating in place ---------------------------------------------- *)

(* Each [scan_*] takes the offset where its token starts and returns the
   offset just past it, or -1.  They allocate nothing. *)

let rec scan_ws s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> scan_ws s (i + 1)
    | _ -> i
  else i

let has s i c = i < String.length s && String.unsafe_get s i = c

let is_digit s i =
  i < String.length s
  && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

let is_hex s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let rec scan_digits s i = if is_digit s i then scan_digits s (i + 1) else i

(* [digits] after a mandatory first digit. *)
let scan_digits1 s i = if is_digit s i then scan_digits s (i + 1) else -1

(* RFC 8259 §6: an optional minus, then 0 or a digit run not starting
   with 0, then an optional fraction, then an optional exponent. *)
let scan_number s i =
  let i = if has s i '-' then i + 1 else i in
  let i = if has s i '0' then i + 1 else scan_digits1 s i in
  let i = if i >= 0 && has s i '.' then scan_digits1 s (i + 1) else i in
  if i >= 0 && (has s i 'e' || has s i 'E') then
    scan_digits1 s (if has s (i + 1) '+' || has s (i + 1) '-' then i + 2 else i + 1)
  else i

(* From just past the opening quote: no raw control character, and only
   the escapes RFC 8259 §7 lists. *)
let rec scan_string s i =
  if i >= String.length s then -1
  else
    match String.unsafe_get s i with
    | '"' -> i + 1
    | '\000' .. '\031' -> -1
    | '\\' -> (
      if i + 1 >= String.length s then -1
      else
        match String.unsafe_get s (i + 1) with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> scan_string s (i + 2)
        | 'u'
          when is_hex s (i + 2) && is_hex s (i + 3) && is_hex s (i + 4)
               && is_hex s (i + 5) ->
          scan_string s (i + 6)
        | _ -> -1)
    | _ -> scan_string s (i + 1)

let rec scan_literal s i word k =
  if k = String.length word then i + k
  else if has s (i + k) (String.unsafe_get word k) then scan_literal s i word (k + 1)
  else -1

let rec scan_value s i =
  if i >= String.length s then -1
  else
    match String.unsafe_get s i with
    | '{' ->
      let j = scan_ws s (i + 1) in
      if has s j '}' then j + 1 else scan_members s j
    | '[' ->
      let j = scan_ws s (i + 1) in
      if has s j ']' then j + 1 else scan_elements s j
    | '"' -> scan_string s (i + 1)
    | 't' -> scan_literal s i "true" 0
    | 'f' -> scan_literal s i "false" 0
    | 'n' -> scan_literal s i "null" 0
    | '-' | '0' .. '9' -> scan_number s i
    | _ -> -1

and scan_members s i =
  let j = if has s i '"' then scan_ws s (scan_string s (i + 1)) else -1 in
  if j < 0 || not (has s j ':') then -1
  else
    let k = scan_value s (scan_ws s (j + 1)) in
    if k < 0 then -1
    else
      let k = scan_ws s k in
      if has s k ',' then scan_members s (scan_ws s (k + 1))
      else if has s k '}' then k + 1
      else -1

and scan_elements s i =
  let k = scan_value s i in
  if k < 0 then -1
  else
    let k = scan_ws s k in
    if has s k ',' then scan_elements s (scan_ws s (k + 1))
    else if has s k ']' then k + 1
    else -1

let scan s i = if i < 0 then -1 else scan_value s i

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
