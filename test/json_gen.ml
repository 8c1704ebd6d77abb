(* Random JSON values, and damaged JSON texts, for the codec and reply
   decoding properties.  The values stress what a printer can get
   wrong — signed zero, the 1e15 switch between the two float forms,
   integral floats, every control character, the int extremes — and
   the damage stresses what a parser can get wrong: truncation, stray
   bytes, whitespace, escapes and malformed numbers. *)

module Json = Pdw_obs.Json
open QCheck2.Gen

let float_gen =
  oneof
    [
      map
        (fun f -> if Float.is_nan f || Float.abs f = Float.infinity then 0.5 else f)
        float;
      oneofl
        [ 0.0; -0.0; 1e15; -1e15; 999999999999999.0; -999999999999999.0;
          0.1; -2.5; 1e-7; 1e300; 5e-324 ];
      map float_of_int (int_range (-1_000_000) 1_000_000);
    ]

let int_gen = oneof [ small_signed_int; int; oneofl [ 0; min_int; max_int ] ]

let string_gen =
  oneof
    [
      string_size ~gen:char (0 -- 12);
      return (String.init 0x20 Char.chr);
      string_size
        ~gen:
          (oneofl
             [ '"'; '\\'; '/'; 'a'; '\n'; '\t'; '\r'; '\b'; '\012'; '\000';
               '\031'; '\127'; '\255' ])
        (0 -- 8);
    ]

let scalar =
  oneof
    [
      return Json.Null;
      map (fun b -> Json.Bool b) bool;
      map (fun i -> Json.Int i) int_gen;
      map (fun f -> Json.Float f) float_gen;
      map (fun s -> Json.Str s) string_gen;
    ]

let fields self = list_size (0 -- 4) (pair string_gen self)

let value : Json.t t =
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2))));
               (1, map (fun kvs -> Json.Obj kvs) (fields (self (n / 2))));
             ])

let obj : Json.t t = map (fun kvs -> Json.Obj kvs) (fields value)

(* Numeric literals, well-formed or not: runs of number characters, and
   digit runs on both sides of the 18 digits an int read in place may
   hold. *)
let number_text =
  oneof
    [
      string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E' ]) (0 -- 8);
      map2
        (fun neg digits -> (if neg then "-" else "") ^ digits)
        bool
        (string_size ~gen:(oneofl [ '0'; '1'; '5'; '9' ]) (15 -- 22));
      oneofl
        [ "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
          "-4611686018427387905"; "999999999999999999"; "1000000000000000000";
          "-0"; "-"; "01"; "1."; ".5"; "+1"; "1e"; "1e+"; "1E-2"; "--1"; "1-2" ];
    ]

let snippets =
  [ " "; "\t"; "\n"; "\r"; "\""; "\\"; ","; ":"; "["; "]"; "{"; "}"; "-"; "+";
    "."; "e"; "0"; "01"; "1e5"; "1."; "true"; "nul"; "\\u00e9"; "\\u20AC";
    "\\uD83D"; "\\u12"; "\\x"; "\000"; "\031" ]

let insert text k piece =
  let k = k mod (String.length text + 1) in
  String.sub text 0 k ^ piece ^ String.sub text k (String.length text - k)

(* One random defect in [text]. *)
let damage text =
  let n = String.length text in
  let at k = if n = 0 then 0 else k mod n in
  oneof
    [
      map (fun k -> String.sub text 0 k) (int_bound n);
      map2
        (fun k c -> if n = 0 then String.make 1 c else String.mapi (fun i x -> if i = at k then c else x) text)
        nat char;
      map2 (insert text) nat (oneofl [ " "; "\t"; "\n"; "\r"; "  " ]);
      map2 (insert text) nat (oneofl snippets);
      map
        (fun k ->
          if n = 0 then text
          else String.sub text 0 (at k) ^ String.sub text (at k + 1) (n - at k - 1))
        nat;
    ]

(* Printed values, damaged or not, and bare numeric literals. *)
let text =
  oneof
    [
      map Json.to_string value;
      bind (map Json.to_string value) damage;
      map (fun lit -> "[" ^ lit ^ "]") number_text;
      number_text;
    ]
