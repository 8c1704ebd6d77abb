type t = {
  limit : int;
  mutable in_flight : int;
  mutable peak : int;
  mutable shed : int;
  lock : Mutex.t;
}

let create ~limit =
  { limit = max 1 limit; in_flight = 0; peak = 0; shed = 0; lock = Mutex.create () }

let try_admit t =
  Mutex.lock t.lock;
  let admitted = t.in_flight < t.limit in
  if admitted then begin
    t.in_flight <- t.in_flight + 1;
    if t.in_flight > t.peak then t.peak <- t.in_flight
  end
  else t.shed <- t.shed + 1;
  Mutex.unlock t.lock;
  admitted

let release t =
  Mutex.lock t.lock;
  t.in_flight <- max 0 (t.in_flight - 1);
  Mutex.unlock t.lock

let in_flight t =
  Mutex.lock t.lock;
  let n = t.in_flight in
  Mutex.unlock t.lock;
  n

let peak t =
  Mutex.lock t.lock;
  let n = t.peak in
  Mutex.unlock t.lock;
  n

let limit t = t.limit

let shed_count t =
  Mutex.lock t.lock;
  let n = t.shed in
  Mutex.unlock t.lock;
  n
