type 'a t = {
  mutable items : 'a array;
  mutable len : int;
  mutable dropped : int;
  lock : Mutex.t;
}

let cap = 1_000_000
let create () = { items = [||]; len = 0; dropped = 0; lock = Mutex.create () }

(* No closures on [add]: a span's record lands inside its parent span,
   whose allocation count it would otherwise inflate. *)
let add t x =
  Mutex.lock t.lock;
  if t.len >= cap then t.dropped <- t.dropped + 1
  else begin
    let n = Array.length t.items in
    if t.len >= n then begin
      let bigger = Array.make (max 256 (min cap (2 * n))) x in
      Array.blit t.items 0 bigger 0 n;
      t.items <- bigger
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1
  end;
  Mutex.unlock t.lock

let to_list t =
  Mutex.lock t.lock;
  let l = Array.to_list (Array.sub t.items 0 t.len) in
  Mutex.unlock t.lock;
  l

let length t =
  Mutex.lock t.lock;
  let n = t.len in
  Mutex.unlock t.lock;
  n

let dropped t =
  Mutex.lock t.lock;
  let n = t.dropped in
  Mutex.unlock t.lock;
  n

let reset t =
  Mutex.lock t.lock;
  t.items <- [||];
  t.len <- 0;
  t.dropped <- 0;
  Mutex.unlock t.lock
